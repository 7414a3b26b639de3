//! Dual write-ahead logs and recovery scaffolding.
//!
//! The BTrim architecture keeps two disk-based transaction logs (§II):
//!
//! * **syslogs** — the traditional redo-undo log for page-store
//!   changes. Page-store recovery is classic checkpoint-based
//!   redo-undo.
//! * **sysimrslogs** — a redo-only log for in-memory DMLs. IMRS
//!   changes are logged at commit time with their commit timestamp, so
//!   recovery is a single forward redo pass. A checkpoint writes no
//!   IMRS data to pages: it writes an image of the IMRS into this log
//!   and truncates the log below it.
//!
//! [`log`] provides the append-only sinks (in-memory and file-backed)
//! with checksummed framing that tolerates a torn tail, and the typed
//! [`LogWriter`] whose leader/follower barrier is each log's one group
//! commit and knows the log's durable LSN; [`record`]
//! defines the log-record vocabulary for both logs; [`recovery`]
//! implements log analysis (winners/losers) and finds the one
//! checkpoint record pair, on sysimrslogs, that certifies both logs.
//! The two logs are recovered independently with lock-step ordering —
//! the engine replays syslogs fully before sysimrslogs — ensuring a
//! consistent database post-recovery (§II).

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

pub mod log;
pub mod record;
pub mod recovery;

pub use log::{FileLog, LogSink, LogWriter, LsnRange, MemLog};
pub use record::{
    Encodable, ImageHeader, ImrsLogRecord, PageLogRecord, RecordBuf, RowOriginTag, MIXED_TXN_BIT,
};
pub use recovery::{analyze_page_log, newest_image, ImageMark, LogAnalysis};
