//! # BTrim core engine
//!
//! The paper's contribution: a hybrid OLTP storage engine that keeps hot
//! rows in an in-memory row store (IMRS) and cold rows in a traditional
//! page store, with fully automatic, workload-driven life-cycle
//! management (ILM).
//!
//! Module map (paper section in parentheses):
//!
//! * [`config`] — engine configuration: modes (PageOnly / IlmOff /
//!   IlmOn), steady cache utilization threshold (§VI.A), tuning-window
//!   and pack-cycle parameters.
//! * [`catalog`] — tables, partitioners, key extractors, secondary
//!   indexes, and the [`catalog::Partition`] record: everything kept per
//!   partition (heap, counters, ILM state, queues, last-window sample),
//!   reached by position from a key or by dense id.
//! * [`txn_ctx`] — the transaction context: write sets, buffered
//!   redo-only IMRS log records, held locks, undo information.
//! * [`engine`] — ISUD execution with transparent dual-store access
//!   (§II) and ILM placement rules (§IV); commit/abort.
//! * [`health`] — the storage-error escalation (Healthy → Degraded →
//!   ReadOnly) and the write stop.
//! * [`checkpoint`] — the fuzzy checkpoint and its truncation floor.
//! * `logged` — the log receipt: the append funnels, and the only
//!   receipt-taking calls of the destructive row methods (WAL-first).
//! * `maintenance` — when GC, tuning, pack and freeze run: inline
//!   every N commits, or on background threads.
//! * [`recovery`] — crash recovery from the two logs and the heap.
//! * [`metrics`] — the counter block of a partition, on sharded
//!   per-CPU counters (§V.A), and its point-in-time sample.
//! * [`tuner`] — auto IMRS partition tuning with hysteresis (§V.B–D);
//!   its verdicts live on the partition records.
//! * [`queues`] — the three relaxed LRU queues of a partition, one per
//!   row origin (§VI.B).
//! * [`tsf`] — the learned Timestamp Filter Ʈ and partition-aware
//!   hotness checks (§VI.D).
//! * [`pack`] — the Pack subsystem: steady/aggressive levels, pack
//!   cycles, UI/CUI/PI apportioning, small pack transactions (§VI,
//!   §VII).
//! * `movement` — the one row-movement path: cache, migrate, pack,
//!   freeze and thaw as `relocate(rows, to)` under one mini-transaction
//!   envelope (§II, §IV, §VII.B).
//! * [`gc`] — IMRS garbage collection; piggy-backs ILM queue
//!   maintenance (§VI.B).
//! * [`sidestore`] — bounded before-image side store letting snapshot
//!   readers roll in-place page-store changes back to their snapshot.
//! * [`freeze`] — the HTAP freeze step: cold page-resident rows are
//!   promoted into immutable compressed columnar extents.
//! * [`scan`] — snapshot-isolated analytic scans merging frozen
//!   extents, IMRS deltas, and page-resident rows.
//! * [`stats`] — experiment-facing snapshots, now carrying per-class
//!   latency summaries, the ILM decision trace, and a JSON export
//!   (`EngineSnapshot::to_json`) built on `btrim-obs`.

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
// A destructive row method (clippy.toml's `disallowed-methods`) takes a
// log receipt: see `logged`. Unit tests build row state by hand.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod catalog;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod freeze;
pub mod gc;
pub mod health;
pub(crate) mod logged;
pub(crate) mod maintenance;
pub mod metrics;
pub(crate) mod movement;
pub mod pack;
pub mod queues;
pub mod recovery;
pub mod scan;
pub(crate) mod sidestore;
pub mod stats;
pub mod tsf;
pub mod tuner;
pub mod txn_ctx;

pub use catalog::{FieldKind, FieldValue, Partitioner, RowLayout, TableDesc, TableOpts};
pub use config::{EngineConfig, EngineMode};
pub use engine::{Engine, SnapshotTxn};
pub use health::HealthState;
pub use maintenance::Actor;
pub use recovery::RecoveryReport;
pub use scan::{ScanResult, ScanSpec};
pub use sidestore::ENTRY_BYTES as SIDE_STORE_ENTRY_BYTES;
pub use stats::EngineSnapshot;
pub use txn_ctx::Transaction;

pub use btrim_common::{BtrimError, PartitionId, Result, RowId, TableId, Timestamp, TxnId};
pub use btrim_common::{HistSummary, HistogramSnapshot, LatencyHistogram};
pub use btrim_imrs::{RowLocation, RowOrigin};
pub use btrim_obs::{IlmTraceEvent, Obs, OpClass, TunerAction};

/// JSON helpers backing [`EngineSnapshot::to_json`]; re-exported so
/// harnesses can validate the export without depending on `btrim-obs`.
pub use btrim_obs::json as obs_json;
