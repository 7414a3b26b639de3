//! Page-oriented disk storage for the BTrim engine.
//!
//! This crate is the "traditional" half of the paper's hybrid
//! architecture (§II, green box of Fig. 1): a paged device behind the
//! [`disk::DiskBackend`] trait, an 8 KiB slotted-page row layout
//! ([`page`]), a latched buffer cache with clock replacement and
//! contention accounting ([`buffer`]), and per-partition heap files
//! ([`heap`]) providing row-level CRUD addressed by `(PageId, SlotId)`.
//!
//! The buffer cache records latch-contention events because the ILM
//! rules use "operations on page-store which observed contention" as a
//! signal to re-enable in-memory storage for a partition (§V.D).
//!
//! The HTAP freeze step adds a third storage form beyond IMRS rows and
//! slotted pages: immutable compressed columnar [`extent`]s, holding
//! rows the ILM signal declared cold-for-good, served to analytic scans
//! without the buffer cache.

#![forbid(unsafe_code)]
// Non-test code does not panic: a failure is a typed `BtrimError`, and
// a deliberate panic says why in an `expect` attribute's `reason`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
// A raw std atomic is an error: each field takes the wrapper of its
// protocol from `btrim_common::atomics` (clippy.toml lists the types).
#![deny(clippy::disallowed_types)]

pub mod buffer;
pub mod disk;
pub mod extent;
pub mod heap;
pub mod page;

pub use buffer::{BufferCache, BufferStats, BufferStatsSnapshot, PageGuard, ShardStat};
pub use disk::{DiskBackend, FileDisk, MemDisk};
pub use extent::{Column, ColumnData, ExtentColumn, ExtentStore, FrozenExtent, MAX_EXTENT_ROWS};
pub use heap::HeapFile;
pub use page::{
    page_checksum, stamp_page_checksum, verify_page_checksum, PageType, PageView, SlottedPage,
    FORMAT_EPOCH, HEADER_SIZE, PAGE_SIZE,
};
