//! The In-Memory Row Store (IMRS).
//!
//! The red box of the paper's Fig. 1: a row-oriented in-memory store that
//! acts both as a *store* (rows inserted directly in memory, no
//! page-store footprint) and a *cache* (hot page-store rows migrated or
//! cached in memory). Components:
//!
//! * [`alloc`] — the high-performance best-fit *fragment memory manager*
//!   the paper calls out as a key sub-system (§II).
//! * [`version`] — version vocabulary (operations, the snapshot
//!   visibility predicate); the basis for in-memory versioning and
//!   snapshot isolation.
//! * [`arena`] — the version arena: all-atomic, index-linked version
//!   chains that snapshot readers walk without taking any lock.
//! * [`ridmap`] — the RID-Map: `RowId` → current physical location
//!   (IMRS or page store), the indirection that makes data movement
//!   invisible to indexes (§II). Its entry is also the IMRS row — chain
//!   head, partition, origin (inserted / migrated / cached), queue
//!   claim, and the loosely-maintained access timestamp used by the
//!   Timestamp Filter (§VI.D) — and the only directory of resident rows.
//! * [`row`] — a borrowed view over one entry carrying the writer-side
//!   version-chain operations.
//! * [`store`] — allocator, arena, the chain-lock stripes, and the
//!   per-partition memory accounting feeding the ILM indexes (§VI.C).
//! * [`sweep`] — the batched reader of every resident row at one
//!   snapshot (analytic scans, the checkpoint image).

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

pub mod alloc;
pub mod arena;
pub mod ridmap;
pub mod row;
pub mod store;
pub mod sweep;
pub mod version;

pub use alloc::{FragHandle, FragmentAllocator, Latched};
pub use arena::{VersionArena, VersionRef, VersionView};
pub use ridmap::{RidMap, RowLocation};
pub use row::{ImrsRow, RowOrigin};
pub use store::{ImrsStore, PartitionUsage, Visible};
pub use sweep::{Sweep, Swept, SWEEP_BATCH};
pub use version::{visible_to, VersionOp};
