//! Slotted-page layout.
//!
//! Classic slotted page: a fixed header, a row-data region growing up
//! from the header, and a slot directory growing down from the end of
//! the page. Row slots survive deletes as tombstones so `(PageId,
//! SlotId)` addresses stay stable until explicit compaction.
//!
//! Layout (little-endian):
//!
//! ```text
//! 0   u8   page_type
//! 1   u8   flags
//! 2   u16  slot_count
//! 4   u16  free_start        (first free byte of the data region)
//! 6   u16  dead_bytes        (reclaimable bytes in holes)
//! 8   u32  page_id
//! 12  u32  partition_id
//! 16  u32  next_page
//! 20  u64  page_lsn          (recovery idempotence)
//! 28  u32  checksum          (of the page, checksum field zeroed)
//! 32  u32  format_epoch      (page-layout version; currently 2)
//! 36  ...  row data ↑   ...   slot dir ↓  [offset u16, len u16] * slot_count
//! ```
//!
//! The checksum ([`btrim_common::checksum`]) is stamped by the buffer
//! cache immediately before each device write and verified on fetch;
//! the all-zero image a freshly allocated page reads back as is exempt.
//! A mismatch means a torn write or media corruption — the page must be
//! salvaged, never served as valid data.

use btrim_common::checksum::{checksum_with_head, STRIPE};
use btrim_common::{PageId, PartitionId, SlotId, NULL_PAGE_ID};

/// Size of every page, in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Size of the page header.
pub const HEADER_SIZE: usize = 36;
/// Current page-layout version stamped in the `format_epoch` field.
pub const FORMAT_EPOCH: u32 = 2;
/// Size of one slot-directory entry.
pub const SLOT_ENTRY_SIZE: usize = 4;
/// Largest row payload a single page can hold.
pub const MAX_ROW_SIZE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_ENTRY_SIZE;

/// Page type discriminants stored in the header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageType {
    /// Unformatted.
    Free = 0,
    /// Heap data page.
    Heap = 1,
    /// B+tree interior node.
    BTreeInner = 2,
    /// B+tree leaf node.
    BTreeLeaf = 3,
}

impl PageType {
    /// Decode from the header byte.
    pub fn from_u8(v: u8) -> PageType {
        match v {
            1 => PageType::Heap,
            2 => PageType::BTreeInner,
            3 => PageType::BTreeLeaf,
            _ => PageType::Free,
        }
    }
}

const OFF_TYPE: usize = 0;
const OFF_SLOT_COUNT: usize = 2;
const OFF_FREE_START: usize = 4;
const OFF_DEAD_BYTES: usize = 6;
const OFF_PAGE_ID: usize = 8;
const OFF_PARTITION: usize = 12;
const OFF_NEXT_PAGE: usize = 16;
const OFF_PAGE_LSN: usize = 20;
const OFF_CHECKSUM: usize = 28;
const OFF_EPOCH: usize = 32;

/// Offset value marking a tombstoned slot (no live data offset can be 0,
/// valid offsets are >= HEADER_SIZE).
const TOMBSTONE: u16 = 0;

/// The checksum field ends the hash's first stripe, so hashing a page
/// with the field read as zero copies only the 28 bytes before it.
const _: () = assert!(OFF_CHECKSUM + 4 == STRIPE);

/// Checksum of the page with the checksum field read as zero. Every
/// buffer miss verifies it and every write-back stamps it.
pub fn page_checksum(buf: &[u8]) -> u32 {
    debug_assert_eq!(buf.len(), PAGE_SIZE);
    let mut head = [0u8; STRIPE];
    head[..OFF_CHECKSUM].copy_from_slice(&buf[..OFF_CHECKSUM]);
    checksum_with_head(&head, &buf[STRIPE..])
}

/// Stamp the checksum and format epoch into a page buffer. Called by the
/// buffer cache just before handing the bytes to the device.
pub fn stamp_page_checksum(buf: &mut [u8]) {
    buf[OFF_EPOCH..OFF_EPOCH + 4].copy_from_slice(&FORMAT_EPOCH.to_le_bytes());
    let sum = page_checksum(buf);
    buf[OFF_CHECKSUM..OFF_CHECKSUM + 4].copy_from_slice(&sum.to_le_bytes());
}

/// Verify a page buffer read from the device: it must carry a matching
/// checksum, or be the all-zero image both disks' `allocate_page` leave
/// on a page never written (tested only once the checksum has failed,
/// so a verified miss pays for one hash). The type byte exempts
/// nothing: every page the engine writes, `Free` ones included, is
/// stamped, and one flipped bit turns a Heap or B-tree inner type into
/// `Free`. A page zeroed *whole* cannot be told from one never written.
pub fn verify_page_checksum(buf: &[u8]) -> bool {
    // A buffer too short to carry the checksum field cannot verify.
    let Some(stored) = buf
        .get(OFF_CHECKSUM..)
        .and_then(|t| t.first_chunk::<4>())
        .map(|b| u32::from_le_bytes(*b))
    else {
        return false;
    };
    stored == page_checksum(buf) || buf.iter().all(|&b| b == 0)
}

/// A formatted page over borrowed bytes: a [`PageView`] over `&[u8]`
/// reads it, a [`SlottedPage`] over `&mut [u8]` also edits it. Neither
/// owns memory, so the buffer cache stays in charge of the bytes.
#[derive(Clone, Copy)]
pub struct Page<B> {
    buf: B,
}

/// Read-only view over a formatted page (used under shared latches).
pub type PageView<'a> = Page<&'a [u8]>;
/// A mutable view over a page buffer with slotted-row operations.
pub type SlottedPage<'a> = Page<&'a mut [u8]>;

impl<'a> PageView<'a> {
    /// Wrap an existing formatted page buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        Page { buf }
    }
}

/// What either view reads.
impl<B: std::ops::Deref<Target = [u8]>> Page<B> {
    fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }
    fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes([
            self.buf[off],
            self.buf[off + 1],
            self.buf[off + 2],
            self.buf[off + 3],
        ])
    }

    /// Page type from the header.
    pub fn page_type(&self) -> PageType {
        PageType::from_u8(self.buf[OFF_TYPE])
    }

    /// This page's id.
    pub fn page_id(&self) -> PageId {
        PageId(self.get_u32(OFF_PAGE_ID))
    }

    /// Owning partition.
    pub fn partition(&self) -> PartitionId {
        PartitionId(self.get_u32(OFF_PARTITION))
    }

    /// Next page in the owning chain (heap page chains, B+tree leaf links).
    pub fn next_page(&self) -> PageId {
        PageId(self.get_u32(OFF_NEXT_PAGE))
    }

    /// Recovery LSN of the last change applied to this page.
    pub fn page_lsn(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[OFF_PAGE_LSN..OFF_PAGE_LSN + 8]);
        u64::from_le_bytes(b)
    }

    /// Number of slots ever created on this page (live + tombstoned).
    pub fn slot_count(&self) -> u16 {
        self.get_u16(OFF_SLOT_COUNT)
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let off = slot_dir_offset(slot);
        (self.get_u16(off), self.get_u16(off + 2))
    }

    /// Offset and length of `slot`'s payload; `None` for tombstoned or
    /// out-of-range slots.
    fn live_entry(&self, slot: SlotId) -> Option<(usize, usize)> {
        if slot.0 >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(slot.0);
        (off != TOMBSTONE).then_some((off as usize, len as usize))
    }

    /// Read a row payload. `None` for tombstoned or out-of-range slots.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        let (off, len) = self.live_entry(slot)?;
        Some(&self.buf[off..off + len])
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_rows(&self) -> usize {
        self.iter_rows().count()
    }

    /// Iterate live rows as `(SlotId, payload)`.
    pub fn iter_rows(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        (0..self.slot_count()).filter_map(|s| Some((SlotId(s), self.get(SlotId(s))?)))
    }

    /// Bytes immediately insertable (contiguous free region, not counting
    /// holes reclaimable by compaction).
    pub fn contiguous_free(&self) -> usize {
        let free_start = self.get_u16(OFF_FREE_START) as usize;
        let dir_start = PAGE_SIZE - SLOT_ENTRY_SIZE * self.slot_count() as usize;
        dir_start.saturating_sub(free_start)
    }

    /// Total free bytes including compactable holes.
    pub fn total_free(&self) -> usize {
        self.contiguous_free() + self.get_u16(OFF_DEAD_BYTES) as usize
    }

    /// Ordered directory (index pages, see [`SlottedPage::insert_ordered`]):
    /// whether the payload at directory position `pos` is the last one
    /// written to the data region — nothing was placed on the page after
    /// it. (A compaction rewrites payloads in directory order, so after
    /// one this is the last position.) `false` for a missing position
    /// and for a heap page's tombstone.
    pub fn is_newest(&self, pos: u16) -> bool {
        let free_start = self.get_u16(OFF_FREE_START) as usize;
        self.live_entry(SlotId(pos))
            .is_some_and(|(off, len)| off + len == free_start)
    }
}

/// Where `slot`'s directory entry lies: the directory grows down from
/// the end of the page.
fn slot_dir_offset(slot: u16) -> usize {
    PAGE_SIZE - SLOT_ENTRY_SIZE * (slot as usize + 1)
}

impl<'a> SlottedPage<'a> {
    /// Wrap an existing formatted page.
    pub fn new(buf: &'a mut [u8]) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        Page { buf }
    }

    /// Format a fresh page in `buf`.
    pub fn init(
        buf: &'a mut [u8],
        page_type: PageType,
        id: PageId,
        partition: PartitionId,
    ) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        buf.fill(0);
        let mut p = Page { buf };
        p.buf[OFF_TYPE] = page_type as u8;
        p.set_u16(OFF_SLOT_COUNT, 0);
        p.set_u16(OFF_FREE_START, HEADER_SIZE as u16);
        p.set_u16(OFF_DEAD_BYTES, 0);
        p.set_u32(OFF_PAGE_ID, id.0);
        p.set_u32(OFF_PARTITION, partition.0);
        p.set_u32(OFF_NEXT_PAGE, NULL_PAGE_ID.0);
        p.set_u64(OFF_PAGE_LSN, 0);
        p
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }
    fn set_u32(&mut self, off: usize, v: u32) {
        self.buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }
    fn set_u64(&mut self, off: usize, v: u64) {
        self.buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Set the next-page link.
    pub fn set_next_page(&mut self, next: PageId) {
        self.set_u32(OFF_NEXT_PAGE, next.0);
    }

    /// Stamp the recovery LSN.
    pub fn set_page_lsn(&mut self, lsn: u64) {
        self.set_u64(OFF_PAGE_LSN, lsn);
    }

    fn set_slot_entry(&mut self, slot: u16, data_off: u16, len: u16) {
        let off = slot_dir_offset(slot);
        self.set_u16(off, data_off);
        self.set_u16(off + 2, len);
    }

    /// Take `len` bytes from the start of the contiguous free region
    /// (the caller checked they are there) and point `slot` at them.
    fn place(&mut self, slot: u16, len: usize) -> &mut [u8] {
        let start = self.get_u16(OFF_FREE_START) as usize;
        self.set_u16(OFF_FREE_START, (start + len) as u16);
        self.set_slot_entry(slot, start as u16, len as u16);
        &mut self.buf[start..start + len]
    }

    /// `len` more bytes lie in holes that a compaction reclaims.
    fn add_dead(&mut self, len: usize) {
        let dead = self.get_u16(OFF_DEAD_BYTES);
        self.set_u16(OFF_DEAD_BYTES, dead + len as u16);
    }

    /// Whether a payload of `len` bytes can be inserted (possibly after
    /// compaction).
    pub fn can_insert(&self, len: usize) -> bool {
        if len > MAX_ROW_SIZE {
            return false;
        }
        // Reusing a tombstoned slot needs no new dir entry.
        let dir_cost = if self.find_tombstone().is_some() {
            0
        } else {
            SLOT_ENTRY_SIZE
        };
        self.total_free() >= len + dir_cost
    }

    fn find_tombstone(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == TOMBSTONE)
    }

    /// Side-effect-free probe: would [`Self::update`] of `slot` to a
    /// `new_len`-byte payload succeed in place? Callers that must log
    /// the overwrite before mutating probe under the same write latch,
    /// append, then update — the answer cannot change in between.
    pub fn update_fits(&self, slot: SlotId, new_len: usize) -> bool {
        self.live_entry(slot)
            .is_some_and(|(_, len)| new_len <= len || self.total_free() + len >= new_len)
    }

    /// Insert a row payload, compacting if needed. Returns the slot, or
    /// `None` when the page cannot hold the payload.
    pub fn insert(&mut self, data: &[u8]) -> Option<SlotId> {
        self.insert_from(data, &mut 0)
    }

    /// [`insert`](Self::insert), reusing the first tombstoned slot at or
    /// after `*cursor` and moving the cursor to it (or past the
    /// directory). Inserts into one page that share a cursor scan the
    /// directory once between them: an insert never tombstones a slot.
    pub fn insert_from(&mut self, data: &[u8], cursor: &mut u16) -> Option<SlotId> {
        if data.len() > MAX_ROW_SIZE {
            return None;
        }
        let reuse = (*cursor..self.slot_count()).find(|&s| self.slot_entry(s).0 == TOMBSTONE);
        *cursor = reuse.unwrap_or(self.slot_count());
        // Reusing a tombstoned slot needs no new dir entry.
        let dir_cost = if reuse.is_some() { 0 } else { SLOT_ENTRY_SIZE };
        if self.total_free() < data.len() + dir_cost {
            return None;
        }
        if self.contiguous_free() < data.len() + dir_cost {
            self.compact();
        }
        debug_assert!(self.contiguous_free() >= data.len() + dir_cost);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_u16(OFF_SLOT_COUNT, s + 1);
                s
            }
        };
        self.place(slot, data.len()).copy_from_slice(data);
        Some(SlotId(slot))
    }

    /// Insert a payload at a *specific* slot (recovery redo). The slot
    /// must be tombstoned or beyond the current slot count; intermediate
    /// slots are materialized as tombstones. Returns `false` when the
    /// slot is already live (redo already applied) or space is missing.
    pub fn insert_at(&mut self, slot: SlotId, data: &[u8]) -> bool {
        if data.len() > MAX_ROW_SIZE {
            return false;
        }
        let count = self.slot_count();
        if slot.0 < count {
            if self.slot_entry(slot.0).0 != TOMBSTONE {
                return false; // already applied
            }
        } else {
            // Materialize slots count..=slot as tombstones.
            let new_count = slot.0 + 1;
            let extra_dir = SLOT_ENTRY_SIZE * (new_count - count) as usize;
            if self.contiguous_free() < extra_dir {
                self.compact();
                if self.contiguous_free() < extra_dir {
                    return false;
                }
            }
            self.set_u16(OFF_SLOT_COUNT, new_count);
            for s in count..new_count {
                self.set_slot_entry(s, TOMBSTONE, 0);
            }
        }
        if self.contiguous_free() < data.len() {
            self.compact();
            if self.contiguous_free() < data.len() {
                return false;
            }
        }
        self.place(slot.0, data.len()).copy_from_slice(data);
        true
    }

    /// Delete a row, tombstoning its slot. Returns the old payload length
    /// or `None` if the slot was not live.
    pub fn delete(&mut self, slot: SlotId) -> Option<usize> {
        let (_, len) = self.live_entry(slot)?;
        self.set_slot_entry(slot.0, TOMBSTONE, 0);
        self.add_dead(len);
        Some(len)
    }

    /// Update a row in place. Returns `false` when the new payload cannot
    /// fit on this page (caller relocates the row).
    pub fn update(&mut self, slot: SlotId, data: &[u8]) -> bool {
        let Some((off, len)) = self.live_entry(slot) else {
            return false;
        };
        if data.len() <= len {
            self.buf[off..off + data.len()].copy_from_slice(data);
            self.set_slot_entry(slot.0, off as u16, data.len() as u16);
            self.add_dead(len - data.len());
            return true;
        }
        // Grow: free old space, place at the end of the data region.
        if self.total_free() + len < data.len() {
            return false;
        }
        self.set_slot_entry(slot.0, TOMBSTONE, 0);
        self.add_dead(len);
        if self.contiguous_free() < data.len() {
            self.compact();
        }
        self.place(slot.0, data.len()).copy_from_slice(data);
        true
    }

    /// Rewrite the data region to squeeze out holes. Slot ids are
    /// preserved and payloads end up in slot order.
    pub fn compact(&mut self) {
        let end = self.get_u16(OFF_FREE_START) as usize;
        let mut old = [0u8; PAGE_SIZE];
        old[HEADER_SIZE..end].copy_from_slice(&self.buf[HEADER_SIZE..end]);
        let mut cursor = HEADER_SIZE;
        for s in 0..self.slot_count() {
            if let Some((off, len)) = self.live_entry(SlotId(s)) {
                self.buf[cursor..cursor + len].copy_from_slice(&old[off..off + len]);
                self.set_slot_entry(s, cursor as u16, len as u16);
                cursor += len;
            }
        }
        self.set_u16(OFF_FREE_START, cursor as u16);
        self.set_u16(OFF_DEAD_BYTES, 0);
    }
}

/// Ordered directory (index pages): the slot directory is kept in the
/// caller's key order, so a slot id is a *position*, not a stable
/// address. There are no tombstones; an insert opens a directory entry
/// at its position and a removal closes one. Heap pages never use these.
impl SlottedPage<'_> {
    /// Open a `len`-byte payload at directory position `pos`, moving the
    /// entries at `pos..` one position up, and hand back its bytes for
    /// the caller to fill. Compacts when only holes have the room;
    /// `None` when the page cannot hold the payload and its entry.
    pub fn insert_ordered(&mut self, pos: u16, len: usize) -> Option<&mut [u8]> {
        let count = self.slot_count();
        let need = len + SLOT_ENTRY_SIZE;
        if pos > count || self.total_free() < need {
            return None;
        }
        if self.contiguous_free() < need {
            self.compact();
        }
        let dir = PAGE_SIZE - SLOT_ENTRY_SIZE * count as usize;
        let moved = dir..PAGE_SIZE - SLOT_ENTRY_SIZE * pos as usize;
        self.buf.copy_within(moved, dir - SLOT_ENTRY_SIZE);
        self.set_u16(OFF_SLOT_COUNT, count + 1);
        Some(self.place(pos, len))
    }

    /// Close directory position `pos`; its payload becomes a hole.
    /// `false` when there is no such position.
    pub fn remove_ordered(&mut self, pos: u16) -> bool {
        let count = self.slot_count();
        if pos >= count {
            return false;
        }
        let len = self.slot_entry(pos).1;
        let dir = PAGE_SIZE - SLOT_ENTRY_SIZE * count as usize;
        let moved = dir..PAGE_SIZE - SLOT_ENTRY_SIZE * (pos as usize + 1);
        self.buf.copy_within(moved, dir + SLOT_ENTRY_SIZE);
        self.set_u16(OFF_SLOT_COUNT, count - 1);
        self.add_dead(len as usize);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        vec![0u8; PAGE_SIZE]
    }

    #[test]
    fn page_view_matches_mutable_page() {
        let mut buf = fresh();
        {
            let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(4), PartitionId(2));
            p.insert(b"alpha").unwrap();
            let s = p.insert(b"beta").unwrap();
            p.insert(b"gamma").unwrap();
            p.delete(s).unwrap();
            p.set_page_lsn(77);
        }
        let v = PageView::new(&buf);
        assert_eq!(v.page_type(), PageType::Heap);
        assert_eq!(v.page_id(), PageId(4));
        assert_eq!(v.partition(), PartitionId(2));
        assert_eq!(v.page_lsn(), 77);
        assert_eq!(v.live_rows(), 2);
        assert_eq!(v.get(SlotId(0)).unwrap(), b"alpha");
        assert!(v.get(SlotId(1)).is_none());
        assert_eq!(v.get(SlotId(2)).unwrap(), b"gamma");
        let rows: Vec<&[u8]> = v.iter_rows().map(|(_, d)| d).collect();
        assert_eq!(rows, vec![b"alpha".as_ref(), b"gamma".as_ref()]);
    }

    #[test]
    fn init_sets_header() {
        let mut buf = fresh();
        let p = SlottedPage::init(&mut buf, PageType::Heap, PageId(9), PartitionId(3));
        assert_eq!(p.page_type(), PageType::Heap);
        assert_eq!(p.page_id(), PageId(9));
        assert_eq!(p.partition(), PartitionId(3));
        assert_eq!(p.slot_count(), 0);
        assert!(p.next_page().is_null());
        assert_eq!(p.contiguous_free(), PAGE_SIZE - HEADER_SIZE);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!!").unwrap();
        assert_eq!(p.get(s1).unwrap(), b"hello");
        assert_eq!(p.get(s2).unwrap(), b"world!!");
        assert_eq!(p.live_rows(), 2);
    }

    #[test]
    fn delete_tombstones_and_reuses_slot() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        let s1 = p.insert(b"aaaa").unwrap();
        let _s2 = p.insert(b"bbbb").unwrap();
        assert_eq!(p.delete(s1), Some(4));
        assert!(p.get(s1).is_none());
        assert_eq!(p.live_rows(), 1);
        // Next insert reuses the tombstoned slot id.
        let s3 = p.insert(b"cccc").unwrap();
        assert_eq!(s3, s1);
        assert_eq!(p.get(s3).unwrap(), b"cccc");
        // Double delete returns None.
        assert_eq!(p.delete(SlotId(99)), None);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"short"));
        assert_eq!(p.get(s).unwrap(), b"short");
        assert!(p.update(s, b"a much longer payload than before"));
        assert_eq!(p.get(s).unwrap(), b"a much longer payload than before");
    }

    #[test]
    fn fills_up_and_rejects_then_compacts() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        let row = vec![0xAAu8; 100];
        let mut slots = Vec::new();
        while let Some(s) = p.insert(&row) {
            slots.push(s);
        }
        assert!(!p.can_insert(100));
        let n = slots.len();
        assert!(n >= (PAGE_SIZE - HEADER_SIZE) / 104 - 1);
        // Delete every other row; space becomes holes.
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        // A larger row now fits only via compaction.
        let big = vec![0xBBu8; 150];
        let s = p.insert(&big).expect("compaction makes room");
        assert_eq!(p.get(s).unwrap(), &big[..]);
    }

    #[test]
    fn oversized_row_rejected() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        assert!(p.insert(&vec![0u8; MAX_ROW_SIZE + 1]).is_none());
        assert!(p.insert(&vec![0u8; MAX_ROW_SIZE]).is_some());
    }

    #[test]
    fn iter_rows_skips_tombstones() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        let _c = p.insert(b"c").unwrap();
        p.delete(a).unwrap();
        let rows: Vec<Vec<u8>> = p.iter_rows().map(|(_, d)| d.to_vec()).collect();
        assert_eq!(rows, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn page_lsn_roundtrip() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        assert_eq!(p.page_lsn(), 0);
        p.set_page_lsn(0xDEAD_BEEF);
        assert_eq!(p.page_lsn(), 0xDEAD_BEEF);
    }

    #[test]
    fn checksum_roundtrip_and_torn_write_detection() {
        let mut buf = fresh();
        {
            let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(1), PartitionId(0));
            p.insert(b"some row data").unwrap();
        }
        stamp_page_checksum(&mut buf);
        assert!(verify_page_checksum(&buf));
        // Epoch was stamped.
        let epoch = u32::from_le_bytes(buf[OFF_EPOCH..OFF_EPOCH + 4].try_into().unwrap());
        assert_eq!(epoch, FORMAT_EPOCH);

        // A torn write (prefix of a different version) is detected.
        let mut new_buf = buf.clone();
        {
            let mut p = SlottedPage::new(&mut new_buf);
            p.insert(b"second row").unwrap();
        }
        stamp_page_checksum(&mut new_buf);
        let mut torn = buf.clone();
        torn[..512].copy_from_slice(&new_buf[..512]);
        assert!(!verify_page_checksum(&torn));

        // Any single flipped bit in the body is detected.
        let mut flipped = buf.clone();
        flipped[HEADER_SIZE + 3] ^= 0x40;
        assert!(!verify_page_checksum(&flipped));
    }

    /// A fixed, stamped page of type `ty`: twenty 100-byte rows in a
    /// heap page, eight 1000-byte cells in a B-tree page.
    fn pinned_page(ty: PageType) -> Vec<u8> {
        let mut buf = fresh();
        {
            let mut p = SlottedPage::init(&mut buf, ty, PageId(7), PartitionId(3));
            if ty == PageType::Heap {
                for i in 0..20u8 {
                    p.insert(&[i.wrapping_mul(37) ^ 0x5A; 100]).unwrap();
                }
            } else {
                for i in 0..8u8 {
                    p.insert_ordered(i as u16, 1000)
                        .unwrap()
                        .fill(i.wrapping_mul(37) ^ 0x5A);
                }
            }
            p.set_page_lsn(99);
        }
        stamp_page_checksum(&mut buf);
        buf
    }

    /// On-disk format pin: the checksums this build stamps on the fixed
    /// pages. A change to the checksum or the layout must bump
    /// `FORMAT_EPOCH` and re-pin.
    #[test]
    fn stamped_checksum_of_a_fixed_page_is_pinned() {
        let buf = pinned_page(PageType::Heap);
        assert_eq!(page_checksum(&buf), 0x13E6_C4A6);
        assert_eq!(
            buf[OFF_CHECKSUM..OFF_CHECKSUM + 4],
            0x13E6_C4A6u32.to_le_bytes()
        );
        assert_eq!(
            page_checksum(&pinned_page(PageType::BTreeLeaf)),
            0xCD10_DE27
        );
    }

    /// Every single-bit flip outside the checksum field is rejected,
    /// the type byte included: one flip turns a Heap page's type (1) or
    /// a B-tree inner page's (2) into `Free` (0), which must not exempt
    /// it from verification.
    #[test]
    fn every_single_bit_flip_of_a_stamped_page_is_rejected() {
        for ty in [PageType::Heap, PageType::BTreeInner, PageType::BTreeLeaf] {
            let mut buf = pinned_page(ty);
            assert!(verify_page_checksum(&buf));
            for bit in 0..PAGE_SIZE * 8 {
                let byte = bit / 8;
                if (OFF_CHECKSUM..OFF_CHECKSUM + 4).contains(&byte) {
                    continue;
                }
                buf[byte] ^= 1 << (bit % 8);
                assert!(
                    !verify_page_checksum(&buf),
                    "{ty:?}: bit {bit} went undetected"
                );
                buf[byte] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn only_the_all_zero_page_is_checksum_exempt() {
        let mut buf = fresh();
        assert!(verify_page_checksum(&buf), "a page never written");
        buf[OFF_PAGE_ID] = 1; // a Free type byte alone does not exempt
        assert!(!verify_page_checksum(&buf));
        SlottedPage::init(&mut buf, PageType::Free, PageId(5), PartitionId(0));
        stamp_page_checksum(&mut buf);
        assert!(verify_page_checksum(&buf), "a stamped Free page");
    }

    /// The ordered directory: a slot id is a position, payloads keep the
    /// caller's order through inserts, removals and a compaction, and
    /// `is_newest` names the payload written last.
    #[test]
    fn ordered_directory_keeps_positions_across_compaction() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::BTreeLeaf, PageId(0), PartitionId(0));
        let cell = |i: u8| [i; 1000];
        for i in [1, 3, 5, 7, 9, 11, 13] {
            let pos = p.slot_count();
            p.insert_ordered(pos, 1000)
                .unwrap()
                .copy_from_slice(&cell(i));
        }
        p.insert_ordered(1, 1000).unwrap().copy_from_slice(&cell(2));
        assert!(
            p.insert_ordered(0, 1000).is_none(),
            "eight cells fill the page"
        );
        assert!(p.insert_ordered(9, 1).is_none(), "no such position");
        let order = |p: &SlottedPage<'_>| p.iter_rows().map(|(_, c)| c[0]).collect::<Vec<_>>();
        assert_eq!(order(&p), [1, 2, 3, 5, 7, 9, 11, 13]);
        let newest = |p: &SlottedPage<'_>| (0..10).filter(|&i| p.is_newest(i)).collect::<Vec<_>>();
        assert_eq!(newest(&p), [1], "the cell written last, wherever it sorts");

        assert!(p.remove_ordered(7) && p.remove_ordered(2) && !p.remove_ordered(6));
        assert_eq!(order(&p), [1, 2, 5, 7, 9, 11]);
        assert_eq!(p.total_free() - p.contiguous_free(), 2000, "two holes");
        assert_eq!(newest(&p), [1]);
        // Only the holes have room for this one: the page compacts, which
        // lays the payloads out in directory order.
        p.insert_ordered(0, 1500).unwrap().fill(0);
        assert_eq!(order(&p), [0, 1, 2, 5, 7, 9, 11]);
        assert_eq!(p.total_free(), p.contiguous_free());
        assert_eq!(newest(&p), [0]);
        p.compact();
        assert_eq!(newest(&p), [6], "after a compaction, the last position");
        // A heap page's tombstone is never the newest payload.
        let mut buf = fresh();
        let mut heap = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        let slot = heap.insert(b"row").unwrap();
        assert!(heap.is_newest(slot.0));
        heap.delete(slot).unwrap();
        assert!(!heap.is_newest(slot.0));
    }

    #[test]
    fn compact_preserves_all_live_rows() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf, PageType::Heap, PageId(0), PartitionId(0));
        let mut expect = std::collections::HashMap::new();
        for i in 0..30u8 {
            let data = vec![i; (i as usize % 17) + 1];
            let s = p.insert(&data).unwrap();
            expect.insert(s, data);
        }
        for i in (0..30u16).step_by(3) {
            p.delete(SlotId(i)).unwrap();
            expect.remove(&SlotId(i));
        }
        p.compact();
        for (s, data) in &expect {
            assert_eq!(p.get(*s).unwrap(), &data[..]);
        }
        assert_eq!(p.live_rows(), expect.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Delete(usize),
        Update(usize, Vec<u8>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 1..300).prop_map(Op::Insert),
            (any::<usize>()).prop_map(Op::Delete),
            (
                any::<usize>(),
                proptest::collection::vec(any::<u8>(), 1..300)
            )
                .prop_map(|(i, d)| Op::Update(i, d)),
        ]
    }

    proptest! {
        /// The page behaves exactly like a HashMap<SlotId, Vec<u8>> model
        /// under any sequence of insert/delete/update, as long as space
        /// allows.
        #[test]
        fn page_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut buf = vec![0u8; PAGE_SIZE];
            let mut page = SlottedPage::init(
                &mut buf, PageType::Heap, PageId(0), PartitionId(0));
            let mut model: HashMap<SlotId, Vec<u8>> = HashMap::new();
            let mut live: Vec<SlotId> = Vec::new();

            for op in ops {
                match op {
                    Op::Insert(data) => {
                        if let Some(s) = page.insert(&data) {
                            model.insert(s, data);
                            if !live.contains(&s) { live.push(s); }
                        } else {
                            prop_assert!(!page.can_insert(data.len()));
                        }
                    }
                    Op::Delete(i) => {
                        if live.is_empty() { continue; }
                        let s = live[i % live.len()];
                        if model.contains_key(&s) {
                            prop_assert!(page.delete(s).is_some());
                            model.remove(&s);
                        } else {
                            prop_assert!(page.delete(s).is_none());
                        }
                    }
                    Op::Update(i, data) => {
                        if live.is_empty() { continue; }
                        let s = live[i % live.len()];
                        if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(s) {
                            if page.update(s, &data) {
                                e.insert(data);
                            }
                        } else {
                            prop_assert!(!page.update(s, &data));
                        }
                    }
                }
                // Invariants hold after every step.
                prop_assert_eq!(page.live_rows(), model.len());
                for (s, d) in &model {
                    prop_assert_eq!(page.get(*s).unwrap(), &d[..]);
                }
                prop_assert!(page.total_free() <= PAGE_SIZE - HEADER_SIZE);
            }
        }
    }
}
