//! The RID-Map table.
//!
//! "Index access goes through an in-memory lookup table, the RID-Map
//! table, to locate the row either in the IMRS or in the buffer cache"
//! (§II). Indexes store `RowId`s; the RID-Map resolves each to its
//! current physical home. Pack and migration update exactly one entry
//! and no index changes, which is how online data movement stays
//! invisible to scans.
//!
//! # Layout
//!
//! Row ids are dense (allocated sequentially from 1), so the map is a
//! chunked direct-index table of all-atomic entries rather than a
//! sharded hash map: a lookup is two shifts and two loads, never a
//! lock.
//!
//! # The entry is the IMRS row
//!
//! An entry is five words, and it is the **only** directory of
//! IMRS-resident rows — there is no second RowId-keyed table beside it:
//!
//! * `loc` — the location, packed `page << 32 | slot << 8 | tag`, so
//!   relocation (pack, migration) is a single CAS and a reader always
//!   sees a coherent `(page, slot)` pair;
//! * `head` — the version-chain head link into the arena. A row is
//!   *resident* in the IMRS exactly while `head != 0`: from the push of
//!   its first version on arrival to the head swap that tears the chain
//!   down (pack, GC of a dead tombstone, undo of an insert);
//! * `part` — bits 0..33 the owning partition + 1 (0 = the row never
//!   arrived), bits 33..35 the [`RowOrigin`] queue it belongs to
//!   (§VI.B), bit 35 the ILM-queue claim GC sets when it enqueues the
//!   row. Arrival rewrites the whole word, so a row that left and came
//!   back starts unclaimed;
//! * `last_access` — the ILM hotness stamp (§V.A "per-row access
//!   timestamps ... updated occasionally").
//!
//! [`ImrsRow`](crate::row::ImrsRow) is a borrowed view over one entry,
//! built by [`RidMap::resident`] from two loads.

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_common::{LazyDir, PageId, PartitionId, RowId, SlotId, Timestamp};

use crate::row::RowOrigin;

/// Where a row currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RowLocation {
    /// Resident in the IMRS (the version chain hangs off the entry).
    Imrs,
    /// At `(page, slot)` in the page store.
    Page(PageId, SlotId),
    /// Deleted from the page store, entry kept so snapshot readers can
    /// find the before-image in the side store; cleared when the
    /// delete's entry retires at the horizon.
    Tombstone(PageId, SlotId),
    /// Slot `idx` of frozen columnar extent `extent` (the `ExtentStore`
    /// holds the immutable compressed image). Same packed shape as
    /// `Page` — extent id where the page would be, slot index where the
    /// slot would be — so relocation to or from cold storage stays one
    /// CAS.
    Frozen(u32, u16),
}

const TAG_ABSENT: u64 = 0;
const TAG_IMRS: u64 = 1;
const TAG_PAGE: u64 = 2;
const TAG_TOMBSTONE: u64 = 3;
const TAG_FROZEN: u64 = 4;

fn encode(loc: RowLocation) -> u64 {
    match loc {
        RowLocation::Imrs => TAG_IMRS,
        RowLocation::Page(p, s) => ((p.0 as u64) << 32) | ((s.0 as u64) << 8) | TAG_PAGE,
        RowLocation::Tombstone(p, s) => ((p.0 as u64) << 32) | ((s.0 as u64) << 8) | TAG_TOMBSTONE,
        RowLocation::Frozen(ext, idx) => ((ext as u64) << 32) | ((idx as u64) << 8) | TAG_FROZEN,
    }
}

fn decode(word: u64) -> Option<RowLocation> {
    let page = PageId((word >> 32) as u32);
    let slot = SlotId(((word >> 8) & 0xFFFF) as u16);
    match word & 0xFF {
        TAG_ABSENT => None,
        TAG_IMRS => Some(RowLocation::Imrs),
        TAG_PAGE => Some(RowLocation::Page(page, slot)),
        TAG_FROZEN => Some(RowLocation::Frozen(page.0, slot.0)),
        _ => Some(RowLocation::Tombstone(page, slot)),
    }
}

/// log2 of entries per chunk.
const CHUNK_BITS: usize = 13;
/// Entries per chunk.
const CHUNK_ENTRIES: usize = 1 << CHUNK_BITS;
/// Maximum number of chunks (caps the table at ~268M rows).
const MAX_CHUNKS: usize = 1 << 15;

/// Per-row atomic state.
#[derive(Default)]
struct Entry {
    /// Packed [`RowLocation`] (0 = absent).
    loc: AcqRel<u64>,
    /// Version-chain head link into the `VersionArena` (0 = none).
    head: AcqRel<u64>,
    /// Owning partition + 1, origin and queue claim (see the module
    /// docs for the bit layout); written on arrival before the chain
    /// head and the location publish the row.
    part: AcqRel<u64>,
    /// Last access (select/update) timestamp, updated loosely.
    last_access: Relaxed<u64>,
}

// The table is `next_row_id` entries long: a fifth word is 8 bytes per
// row ever allocated.
const _: () = assert!(std::mem::size_of::<Entry>() == 32);

const PART_MASK: u64 = (1 << 33) - 1;
const ORIGIN_SHIFT: u32 = 33;
const ENQUEUED: u64 = 1 << 35;

fn pack_part(part: PartitionId, origin: RowOrigin) -> u64 {
    (part.0 as u64 + 1) | (origin as u64) << ORIGIN_SHIFT
}

fn unpack_part(word: u64) -> Option<(PartitionId, RowOrigin)> {
    let part = word & PART_MASK;
    let origin = match (word >> ORIGIN_SHIFT) & 3 {
        0 => RowOrigin::Inserted,
        1 => RowOrigin::Migrated,
        _ => RowOrigin::Cached,
    };
    (part != 0).then(|| (PartitionId((part - 1) as u32), origin))
}

/// [`CHUNK_ENTRIES`] entries, and which partitions ever had a row
/// arrive in them.
struct Chunk {
    entries: Box<[Entry; CHUNK_ENTRIES]>,
    /// Bit `p % 64` is set for every partition `p` that had a row
    /// arrive here ([`partition_bit`]), before that row's chain head
    /// is published; never cleared.
    parts: AcqRel<u64>,
}

// A directory slot is 24 bytes, as a slot of a bare `Box<[Entry]>`
// was; only the slots of the groups in use are built.
const _: () = assert!(std::mem::size_of::<std::sync::OnceLock<Chunk>>() == 24);

/// A partition's bit in a chunk's `parts`.
fn partition_bit(part: PartitionId) -> u64 {
    1 << (part.0 % 64)
}

/// RowId → location map plus the RowId allocator.
pub struct RidMap {
    chunks: LazyDir<Chunk>,
    next_row_id: Relaxed<u64>,
    /// Mapped-row count, maintained on tag transitions.
    mapped: Relaxed<i64>,
    /// Arrivals from a page ([`RidMap::arrivals`]).
    arrivals: AcqRel<u64>,
}

impl Default for RidMap {
    fn default() -> Self {
        Self::new()
    }
}

impl RidMap {
    /// Create an empty map. Row ids start at 1 (0 is reserved).
    pub fn new() -> Self {
        RidMap {
            chunks: LazyDir::new(MAX_CHUNKS),
            next_row_id: Relaxed::new(1),
            mapped: Relaxed::new(0),
            arrivals: AcqRel::new(0),
        }
    }

    /// Entry for `row`, creating its chunk on demand.
    fn entry(&self, row: RowId) -> &Entry {
        let idx = row.0 as usize;
        &self.chunk(idx >> CHUNK_BITS).entries[idx & (CHUNK_ENTRIES - 1)]
    }

    /// Chunk `c`, created on demand.
    fn chunk(&self, c: usize) -> &Chunk {
        assert!(c < MAX_CHUNKS, "row id beyond RID-Map capacity");
        self.chunks.get_or_init(c, || {
            let entries: Vec<Entry> = (0..CHUNK_ENTRIES).map(|_| Entry::default()).collect();
            #[expect(
                clippy::expect_used,
                reason = "the vector holds exactly CHUNK_ENTRIES entries"
            )]
            let entries = Box::try_from(entries).ok().expect("a whole chunk");
            Chunk {
                entries,
                parts: AcqRel::new(0),
            }
        })
    }

    /// Entry for `row` if its chunk exists (read paths: an absent chunk
    /// means the row was never mapped).
    fn try_entry(&self, row: RowId) -> Option<&Entry> {
        let idx = row.0 as usize;
        let chunk = self.chunks.get(idx >> CHUNK_BITS)?;
        Some(&chunk.entries[idx & (CHUNK_ENTRIES - 1)])
    }

    /// Allocate a fresh, never-used RowId.
    pub fn allocate_row_id(&self) -> RowId {
        RowId(self.next_row_id.fetch_add(1))
    }

    /// The RowId the next allocation hands out.
    pub fn next_row_id(&self) -> RowId {
        RowId(self.next_row_id.load())
    }

    /// Make sure future allocations start above `floor` (recovery).
    pub fn bump_row_id_floor(&self, floor: RowId) {
        self.next_row_id.fetch_max(floor.0 + 1);
    }

    /// Current location of a row, if known.
    pub fn get(&self, row: RowId) -> Option<RowLocation> {
        self.try_entry(row).and_then(|e| decode(e.loc.load()))
    }

    /// Set / replace a row's location. The `Release` store publishes
    /// everything written to the entry beforehand (partition, chain
    /// head) to lock-free readers.
    pub fn set(&self, row: RowId, loc: RowLocation) {
        let prev = self.entry(row).loc.swap(encode(loc));
        if prev & 0xFF == TAG_ABSENT {
            self.mapped.fetch_add(1);
        }
    }

    /// Atomically replace the location only if it currently equals
    /// `expected`. Returns whether the swap happened. Pack uses this so
    /// a concurrent migration cannot be clobbered.
    pub fn compare_and_set(&self, row: RowId, expected: RowLocation, new: RowLocation) -> bool {
        let Some(e) = self.try_entry(row) else {
            return false;
        };
        e.loc
            .compare_exchange(encode(expected), encode(new))
            .is_ok()
    }

    /// Remove a row entirely (committed delete fully garbage-collected).
    pub fn remove(&self, row: RowId) -> Option<RowLocation> {
        let e = self.try_entry(row)?;
        let prev = decode(e.loc.swap(TAG_ABSENT));
        if prev.is_some() {
            self.mapped.fetch_sub(1);
        }
        prev
    }

    /// Number of mapped rows.
    pub fn len(&self) -> usize {
        self.mapped.load().max(0) as usize
    }

    /// Whether no rows are mapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ---- per-row atomic state used by the lock-free read path ----

    /// The version-chain head cell for `row` (the arena publishes new
    /// versions into it with a `Release` store).
    pub fn head_cell(&self, row: RowId) -> &AcqRel<u64> {
        &self.entry(row).head
    }

    /// Current version-chain head link (0 = no chain published yet).
    pub fn head(&self, row: RowId) -> u64 {
        self.try_entry(row).map_or(0, |e| e.head.load())
    }

    /// Owning partition, if the row ever arrived in the IMRS.
    pub fn partition(&self, row: RowId) -> Option<PartitionId> {
        let word = self.try_entry(row)?.part.load();
        unpack_part(word).map(|(part, _)| part)
    }

    /// Row arrival in the IMRS: mark the partition in its chunk, record
    /// partition and origin, drop any queue claim a previous stay left
    /// behind, and seed the access timestamp without counting a re-use. The caller publishes the
    /// chain head and the location afterwards, so a reader that sees
    /// either sees these.
    pub fn arrive(&self, row: RowId, part: PartitionId, origin: RowOrigin, now: Timestamp) {
        let parts = &self.chunk(row.0 as usize >> CHUNK_BITS).parts;
        if parts.load() & partition_bit(part) == 0 {
            parts.fetch_or(partition_bit(part));
        }
        let e = self.entry(row);
        e.part.store(pack_part(part, origin));
        e.last_access.store(now.0);
    }

    /// Partition and origin of `row` if it is resident in the IMRS
    /// (`head != 0`).
    pub fn resident(&self, row: RowId) -> Option<(PartitionId, RowOrigin)> {
        Self::resident_entry(self.try_entry(row)?)
    }

    fn resident_entry(e: &Entry) -> Option<(PartitionId, RowOrigin)> {
        if e.head.load() == 0 {
            return None;
        }
        unpack_part(e.part.load())
    }

    /// Visit every IMRS-resident row in RowId order: a sweep over the
    /// chunks that exist.
    pub fn for_each_resident(&self, mut f: impl FnMut(RowId, PartitionId, RowOrigin)) {
        self.for_each_resident_from(RowId(0), u64::MAX, |row, part, origin| {
            f(row, part, origin);
            true
        });
    }

    /// Visit the IMRS-resident rows from `from` on, in RowId order,
    /// while `f` says go on. Chunks where no partition of `parts`
    /// ([`RidMap::partitions_mask`]) ever had a row arrive are skipped;
    /// in the others `f` sees every resident row, whatever its
    /// partition. Returns where to resume — the RowId after the row `f`
    /// stopped at — or `None` once every chunk is swept.
    pub fn for_each_resident_from(
        &self,
        from: RowId,
        parts: u64,
        mut f: impl FnMut(RowId, PartitionId, RowOrigin) -> bool,
    ) -> Option<RowId> {
        let (first, offset) = (
            from.0 as usize >> CHUNK_BITS,
            from.0 as usize % CHUNK_ENTRIES,
        );
        for (c, chunk) in self.chunks.iter_from(first) {
            if chunk.parts.load() & parts == 0 {
                continue;
            }
            let skip = if c == first { offset } else { 0 };
            for (i, e) in chunk.entries.iter().enumerate().skip(skip) {
                if let Some((part, origin)) = Self::resident_entry(e) {
                    let row = RowId(((c << CHUNK_BITS) | i) as u64);
                    if !f(row, part, origin) {
                        return Some(RowId(row.0 + 1));
                    }
                }
            }
        }
        None
    }

    /// The mask [`RidMap::for_each_resident_from`] takes to visit only
    /// chunks where a row of one of `partitions` ever arrived.
    pub fn partitions_mask(partitions: impl IntoIterator<Item = PartitionId>) -> u64 {
        partitions.into_iter().fold(0, |m, p| m | partition_bit(p))
    }

    /// Count an arrival that leaves a page copy behind (a migrated or
    /// cached row). [`ImrsStore`](crate::ImrsStore) calls it once the
    /// chain head is published and before the caller retires that copy.
    /// A fresh insert has no page copy: if it committed before a
    /// reader's snapshot, its head was published before the reader's
    /// first sweep began, so it is not counted.
    pub(crate) fn count_arrival(&self) {
        self.arrivals.fetch_add(1);
    }

    /// Arrivals from a page so far. A reader loads it before a sweep of
    /// the resident rows and again after a pass over the pages: if both
    /// loads agree, no row went from a page to the IMRS unseen. An
    /// arrival the first load saw had published its chain head already,
    /// so the sweep found the row; one it did not see was counted before
    /// the row's page copy was retired, so either the page pass found
    /// that copy or the second load sees the count move.
    pub fn arrivals(&self) -> u64 {
        self.arrivals.load()
    }

    /// Claim ILM-queue membership. Returns `true` when the caller
    /// should enqueue the row (it was not in a queue before).
    pub fn try_mark_enqueued(&self, row: RowId) -> bool {
        self.entry(row).part.fetch_or(ENQUEUED) & ENQUEUED == 0
    }

    /// Release queue membership (row popped and not re-queued).
    pub fn clear_enqueued(&self, row: RowId) {
        self.entry(row).part.fetch_and(!ENQUEUED);
    }

    /// Record an access for hotness tracking (cheap; a relaxed store).
    pub fn touch(&self, row: RowId, now: Timestamp) {
        self.entry(row).last_access.store(now.0);
    }

    /// Last recorded access timestamp for `row`.
    pub fn last_access(&self, row: RowId) -> Timestamp {
        Timestamp(self.try_entry(row).map_or(0, |e| e.last_access.load()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_ids_are_unique_and_monotonic() {
        let m = RidMap::new();
        let a = m.allocate_row_id();
        let b = m.allocate_row_id();
        assert!(b > a);
        assert!(a.0 >= 1);
    }

    #[test]
    fn set_get_remove_roundtrip() {
        let m = RidMap::new();
        let r = m.allocate_row_id();
        assert_eq!(m.get(r), None);
        m.set(r, RowLocation::Imrs);
        assert_eq!(m.get(r), Some(RowLocation::Imrs));
        m.set(r, RowLocation::Page(PageId(3), SlotId(9)));
        assert_eq!(m.get(r), Some(RowLocation::Page(PageId(3), SlotId(9))));
        assert_eq!(m.remove(r), Some(RowLocation::Page(PageId(3), SlotId(9))));
        assert_eq!(m.get(r), None);
        assert!(m.is_empty());
    }

    #[test]
    fn location_packing_roundtrips_extremes() {
        for loc in [
            RowLocation::Imrs,
            RowLocation::Page(PageId(0), SlotId(0)),
            RowLocation::Page(PageId(u32::MAX), SlotId(u16::MAX)),
            RowLocation::Tombstone(PageId(7), SlotId(3)),
            RowLocation::Tombstone(PageId(u32::MAX), SlotId(u16::MAX)),
            RowLocation::Frozen(0, 0),
            RowLocation::Frozen(u32::MAX, u16::MAX),
            RowLocation::Frozen(9, 65535),
        ] {
            assert_eq!(decode(encode(loc)), Some(loc));
        }
        assert_eq!(decode(TAG_ABSENT), None);
    }

    #[test]
    fn frozen_locations_relocate_by_cas() {
        let m = RidMap::new();
        let r = m.allocate_row_id();
        m.set(r, RowLocation::Page(PageId(4), SlotId(2)));
        // Freeze: page slot → extent slot.
        assert!(m.compare_and_set(
            r,
            RowLocation::Page(PageId(4), SlotId(2)),
            RowLocation::Frozen(12, 7),
        ));
        assert_eq!(m.get(r), Some(RowLocation::Frozen(12, 7)));
        // Thaw: extent slot → IMRS.
        assert!(m.compare_and_set(r, RowLocation::Frozen(12, 7), RowLocation::Imrs));
        assert_eq!(m.get(r), Some(RowLocation::Imrs));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn compare_and_set_guards_concurrent_relocation() {
        let m = RidMap::new();
        let r = m.allocate_row_id();
        m.set(r, RowLocation::Imrs);
        // Wrong expectation: no change.
        assert!(!m.compare_and_set(
            r,
            RowLocation::Page(PageId(0), SlotId(0)),
            RowLocation::Page(PageId(1), SlotId(1)),
        ));
        assert_eq!(m.get(r), Some(RowLocation::Imrs));
        // Right expectation: swapped.
        assert!(m.compare_and_set(
            r,
            RowLocation::Imrs,
            RowLocation::Page(PageId(1), SlotId(1)),
        ));
        assert_eq!(m.get(r), Some(RowLocation::Page(PageId(1), SlotId(1))));
    }

    #[test]
    fn tombstones_are_distinct_from_live_page_slots() {
        let m = RidMap::new();
        let r = m.allocate_row_id();
        m.set(r, RowLocation::Page(PageId(4), SlotId(2)));
        assert!(m.compare_and_set(
            r,
            RowLocation::Page(PageId(4), SlotId(2)),
            RowLocation::Tombstone(PageId(4), SlotId(2)),
        ));
        assert_eq!(m.get(r), Some(RowLocation::Tombstone(PageId(4), SlotId(2))));
        // A tombstone still counts as mapped until cleared.
        assert_eq!(m.len(), 1);
        m.remove(r);
        assert!(m.is_empty());
    }

    #[test]
    fn bump_floor_skips_recovered_ids() {
        let m = RidMap::new();
        m.bump_row_id_floor(RowId(500));
        assert!(m.allocate_row_id().0 > 500);
    }

    #[test]
    fn per_row_state_tracks_hotness_and_partition() {
        let m = RidMap::new();
        let r = m.allocate_row_id();
        assert_eq!(m.partition(r), None);
        m.arrive(r, PartitionId(0), RowOrigin::Cached, Timestamp(7));
        m.set(r, RowLocation::Imrs);
        assert_eq!(m.partition(r), Some(PartitionId(0)));
        assert_eq!(m.last_access(r), Timestamp(7));
        m.touch(r, Timestamp(42));
        m.touch(r, Timestamp(43));
        assert_eq!(m.last_access(r), Timestamp(43));
    }

    #[test]
    fn a_resident_sweep_resumes_where_it_stopped() {
        let m = RidMap::new();
        let ids = [
            3u64,
            4,
            9,
            CHUNK_ENTRIES as u64 + 2,
            3 * CHUNK_ENTRIES as u64,
        ];
        for &id in &ids {
            m.arrive(RowId(id), PartitionId(1), RowOrigin::Inserted, Timestamp(1));
            m.head_cell(RowId(id)).store(1);
        }
        // Two rows a call: every resident row once, in order.
        let (mut seen, mut from) = (Vec::new(), Some(RowId(0)));
        while let Some(at) = from {
            let mut n = 0;
            from = m.for_each_resident_from(at, u64::MAX, |row, _, _| {
                seen.push(row.0);
                n += 1;
                n < 2
            });
        }
        assert_eq!(seen, ids);
        assert_eq!(
            m.for_each_resident_from(RowId(u64::MAX), u64::MAX, |_, _, _| true),
            None
        );
    }

    #[test]
    fn a_resident_sweep_skips_chunks_without_its_partitions() {
        let m = RidMap::new();
        let rows = [(5, 1), (CHUNK_ENTRIES + 5, 2), (2 * CHUNK_ENTRIES + 5, 66)];
        for (id, part) in rows {
            let row = RowId(id as u64);
            m.arrive(row, PartitionId(part), RowOrigin::Inserted, Timestamp(1));
            m.head_cell(row).store(1);
        }
        let sweep = |parts: &[u32]| {
            let mask = RidMap::partitions_mask(parts.iter().map(|&p| PartitionId(p)));
            let mut seen = Vec::new();
            m.for_each_resident_from(RowId(0), mask, |row, _, _| {
                seen.push(row.0 as usize);
                true
            });
            seen
        };
        assert_eq!(sweep(&[1]), [5]);
        assert_eq!(sweep(&[1, 3]), [5]);
        // Partitions 2 and 66 share a bit: both their chunks are visited.
        assert_eq!(sweep(&[66]), [CHUNK_ENTRIES + 5, 2 * CHUNK_ENTRIES + 5]);
        assert!(sweep(&[3]).is_empty());
        assert!(sweep(&[]).is_empty());
    }

    #[test]
    fn many_rows_fill_multiple_chunks() {
        let m = RidMap::new();
        for _ in 0..(CHUNK_ENTRIES * 2 + 10) {
            let r = m.allocate_row_id();
            m.set(r, RowLocation::Imrs);
        }
        assert_eq!(m.len(), CHUNK_ENTRIES * 2 + 10);
        let populated = m.chunks.iter_from(0).count();
        assert!(populated >= 2, "sequential ids span chunks");
    }
}
