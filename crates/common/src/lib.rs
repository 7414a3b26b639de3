//! Shared foundation types for the BTrim hybrid storage engine.
//!
//! This crate holds the vocabulary used by every other crate in the
//! workspace: strongly-typed identifiers ([`ids`]), the error type
//! ([`error`]), cache-friendly sharded statistics counters ([`counters`],
//! the per-CPU counters of §V.A of the paper), a small binary
//! encode/decode layer ([`codec`]) used by row formats and log records,
//! the checksum every on-disk format is checked with ([`checksum`]),
//! a monotonic logical clock ([`clock`]) used for commit timestamps, and
//! the observability primitives — lock-free log-scale latency histograms
//! ([`hist`]) and a bounded trace ring ([`ring`]) — that `btrim-obs`
//! builds its per-operation-class registry and ILM decision trace on.
//! The dense id spaces' directories are [`lazy::LazyDir`]s.
//! Every cross-thread atomic is one of the three ordering wrappers in
//! [`atomics`].

#![forbid(unsafe_code)]
// A raw std atomic is an error here: each field takes the wrapper of
// its protocol from `atomics` (the std types are listed in clippy.toml).
#![deny(clippy::disallowed_types)]

#[expect(
    clippy::disallowed_types,
    reason = "the one module that names the std atomics: it wraps each in the orderings its protocol allows"
)]
pub mod atomics;
pub mod checksum;
pub mod clock;
pub mod codec;
pub mod counters;
pub mod error;
pub mod hist;
pub mod ids;
pub mod lazy;
pub mod ring;

pub use clock::LogicalClock;
pub use counters::ShardedCounter;
pub use error::{BtrimError, Result};
pub use hist::{HistSummary, HistogramSnapshot, LatencyHistogram};
pub use ids::{Lsn, PageId, PartitionId, RowId, SlotId, TableId, Timestamp, TxnId, NULL_PAGE_ID};
pub use lazy::LazyDir;
pub use ring::TraceRing;
