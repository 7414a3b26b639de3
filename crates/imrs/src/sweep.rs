//! The batched reader of resident rows.
//!
//! A sweep visits every IMRS-resident row in RowId order and lends its
//! caller the image each one shows at a snapshot; narrowed to some
//! partitions ([`Sweep::only`]), it skips the RID-Map chunks where none
//! of them ever had a row. The analytic scan's RID-Map sweeps and the
//! checkpoint's image both read the IMRS this way. Rows go
//! [`SWEEP_BATCH`] at a time, in two passes:
//!
//! 1. [`Sweep::next_batch`] resolves each row lock-free: location,
//!    chain head and the visible version, as every other read does
//!    ([`ImrsStore::visible`]);
//! 2. [`Sweep::read`] then takes one shared latch per allocator chunk
//!    the batch's images lie in and hands the rows out in order.
//!
//! The caller's code inside [`Sweep::read`] must take no lock. An
//! allocation into a latched chunk, or one that adds a chunk, then
//! waits for one batch at most, and the sweep pays a few latch round trips per batch instead of two
//! per row. Each pass first loads what it is about to read for the
//! whole batch — the chain heads' nodes, both ends of each image — so
//! that the rows' cache misses overlap rather than queue one behind the
//! next.

use btrim_common::{BtrimError, PartitionId, Result, RowId, Timestamp, TxnId};

use crate::arena::VersionView;
use crate::ridmap::{RidMap, RowLocation};
use crate::row::RowOrigin;
use crate::store::{ImrsStore, Visible};

/// Rows a sweep resolves before it reads their images.
pub const SWEEP_BATCH: usize = 64;

/// One resident row as [`Sweep::read`] hands it out.
#[derive(Clone, Copy, Debug)]
pub enum Swept<'a> {
    /// The version visible at the snapshot, and its image.
    Visible(VersionView, &'a [u8]),
    /// No version is visible at the snapshot.
    Hidden,
    /// The row is leaving or has left the IMRS: the caller resolves it
    /// again through its current location.
    Moved,
}

/// A batched reader over the resident rows at one snapshot
/// ([`ImrsStore::sweep`]). `reader` must stay registered while the
/// sweep runs, so that no image it resolved is reclaimed.
pub struct Sweep<'s> {
    store: &'s ImrsStore,
    snapshot: Timestamp,
    reader: TxnId,
    /// Where the next batch starts; `None` once the RID-Map is swept.
    next: Option<RowId>,
    /// The partitions swept ([`RidMap::partitions_mask`]).
    parts: u64,
    /// The current batch, in RowId order.
    rows: Vec<(RowId, PartitionId, RowOrigin, Visible)>,
}

impl<'s> Sweep<'s> {
    pub(crate) fn new(store: &'s ImrsStore, snapshot: Timestamp, reader: TxnId) -> Self {
        Sweep {
            store,
            snapshot,
            reader,
            next: Some(RowId(0)),
            parts: u64::MAX,
            rows: Vec::with_capacity(SWEEP_BATCH),
        }
    }

    /// Sweep only the rows of `partitions`: RID-Map chunks where none of
    /// them ever had a row arrive are skipped unread.
    pub fn only(mut self, partitions: impl IntoIterator<Item = PartitionId>) -> Self {
        self.parts = RidMap::partitions_mask(partitions);
        self
    }

    /// Pass one: resolve the next [`SWEEP_BATCH`] resident rows that
    /// `want` keeps, lock-free. Returns `false` once none is left.
    pub fn next_batch(&mut self, mut want: impl FnMut(RowId, PartitionId) -> bool) -> Result<bool> {
        self.rows.clear();
        let Some(from) = self.next else {
            return Ok(false);
        };
        let (store, rows) = (self.store, &mut self.rows);
        let ridmap = store.ridmap();
        self.next = ridmap.for_each_resident_from(from, self.parts, |row, partition, origin| {
            if want(row, partition) {
                rows.push((row, partition, origin, Visible::Moved));
            }
            rows.len() < SWEEP_BATCH
        });
        // Load every chain head before resolving any: the batch's cache
        // misses overlap instead of queuing one behind the next.
        std::hint::black_box(store.arena().warm(rows.iter().map(|r| ridmap.head(r.0))));
        for r in rows.iter_mut() {
            if ridmap.get(r.0) == Some(RowLocation::Imrs) {
                r.3 = store.visible(r.0, self.snapshot, self.reader)?;
            }
        }
        Ok(!rows.is_empty())
    }

    /// Pass two: hand `f` each row of the batch in RowId order, images
    /// lent under one shared latch per allocator chunk. `f` must take
    /// no lock. Stops at `f`'s first error.
    pub fn read(
        &self,
        mut f: impl FnMut(RowId, PartitionId, RowOrigin, Swept<'_>) -> Result<()>,
    ) -> Result<()> {
        let handle = |found| match found {
            Visible::Image(_, h) => Some(h),
            _ => None,
        };
        let handles = self.rows.iter().filter_map(|r| handle(r.3));
        self.store.allocator().with_latched(handles, |latched| {
            // Touch both ends of every image first, as pass one does the
            // chain heads: an image spans two cache lines or more.
            let images = self.rows.iter().filter_map(|r| latched.bytes(handle(r.3)?));
            let ends = images.filter_map(|b| Some(b.first()? ^ b.last()?));
            std::hint::black_box(ends.fold(0, |acc, x| acc ^ x));
            for &(row, partition, origin, found) in &self.rows {
                let swept = match found {
                    Visible::Image(v, h) => {
                        let image = latched.bytes(h).ok_or_else(|| {
                            BtrimError::Corrupt(format!("row {row}: image outside its chunk"))
                        })?;
                        Swept::Visible(v, image)
                    }
                    Visible::Hidden => Swept::Hidden,
                    Visible::Moved => Swept::Moved,
                };
                f(row, partition, origin, swept)?;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn a_sweep_reads_every_row_once_in_order_with_its_visible_image() {
        // Small chunks, so one batch spans several.
        let store = ImrsStore::new(1 << 20, 4096, Arc::new(RidMap::new()));
        let rows = 3 * SWEEP_BATCH as u64 + 5;
        for i in 1..=rows {
            let (part, data) = (
                PartitionId((i % 3) as u32),
                vec![i as u8; 40 + i as usize % 90],
            );
            let ts = Timestamp(if i % 7 == 0 { 50 } else { 10 });
            store
                .insert_row_committed(RowId(i), part, RowOrigin::Inserted, TxnId(1), &data, ts)
                .unwrap();
            store.ridmap().set(RowId(i), RowLocation::Imrs);
        }
        // One row's location already says it left.
        store.ridmap().set(
            RowId(3),
            RowLocation::Page(btrim_common::PageId(1), btrim_common::SlotId(0)),
        );
        let mut sweep = store.sweep(Timestamp(20), TxnId(0));
        let (mut seen, mut batches) = (Vec::new(), 0);
        while sweep.next_batch(|_, part| part != PartitionId(2)).unwrap() {
            batches += 1;
            sweep
                .read(|row, part, _, swept| {
                    let i = row.0;
                    assert_ne!(part, PartitionId(2), "not wanted");
                    match swept {
                        Swept::Visible(v, image) => {
                            assert_eq!(v.commit_ts, Some(Timestamp(10)));
                            assert_eq!(image, vec![i as u8; 40 + i as usize % 90]);
                        }
                        Swept::Hidden => assert_eq!(i % 7, 0, "row {i} is visible"),
                        Swept::Moved => assert_eq!(i, 3),
                    }
                    seen.push(i);
                    Ok(())
                })
                .unwrap();
        }
        let want: Vec<u64> = (1..=rows).filter(|i| i % 3 != 2).collect();
        assert_eq!(seen, want);
        assert_eq!(batches, want.len().div_ceil(SWEEP_BATCH));
    }
}
