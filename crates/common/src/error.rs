//! Engine-wide error type.

use std::fmt;
use std::io;

use crate::ids::{PageId, RowId, TxnId};

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, BtrimError>;

/// Errors surfaced by the storage engine.
#[derive(Debug)]
pub enum BtrimError {
    /// An I/O error from the disk backend or log device.
    Io(io::Error),
    /// The requested page does not exist on the device.
    PageNotFound(PageId),
    /// The requested row does not exist (or is not visible).
    RowNotFound(RowId),
    /// A row lock could not be acquired (conditional locks, deadlock
    /// avoidance timeouts).
    LockNotGranted { row: RowId, holder: Option<TxnId> },
    /// The transaction was aborted (e.g. write-write conflict under
    /// snapshot isolation).
    TxnAborted { txn: TxnId, reason: String },
    /// The IMRS fragment allocator could not satisfy an allocation and the
    /// engine is rejecting new in-memory rows (§VI.A "stop storing new
    /// rows in the IMRS"). `available` is the largest free block left,
    /// the most any single request could have been given.
    ImrsFull { requested: usize, available: usize },
    /// Every buffer-cache frame is pinned, so nothing could be evicted
    /// to make room. `pinned` close to `capacity` with a small capacity
    /// means the cache is undersized; `pinned` close to `capacity` with
    /// a generous capacity points at a pin (guard) leak.
    BufferExhausted { pinned: usize, capacity: usize },
    /// A record or page failed to decode (corruption or version skew).
    Corrupt(String),
    /// A page's stored checksum did not match its contents (torn write
    /// or media corruption). The page must never be served as valid data.
    ChecksumMismatch(PageId),
    /// A page buffer handed to the disk backend had the wrong length.
    ShortBuffer { expected: usize, got: usize },
    /// The engine is in the read-only health state (persistent storage
    /// failure); new writes are rejected until the device recovers.
    ReadOnly(String),
    /// Catalog-level misuse: unknown table, duplicate key, schema
    /// violation, and similar caller errors.
    Invalid(String),
    /// Unique-key violation on insert.
    DuplicateKey(String),
}

impl fmt::Display for BtrimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtrimError::Io(e) => write!(f, "io error: {e}"),
            BtrimError::PageNotFound(p) => write!(f, "page not found: {p}"),
            BtrimError::RowNotFound(r) => write!(f, "row not found: {r}"),
            BtrimError::LockNotGranted { row, holder } => match holder {
                Some(t) => write!(f, "lock on {row} not granted (held by {t})"),
                None => write!(f, "lock on {row} not granted"),
            },
            BtrimError::TxnAborted { txn, reason } => {
                write!(f, "transaction {txn} aborted: {reason}")
            }
            BtrimError::ImrsFull {
                requested,
                available,
            } => write!(
                f,
                "IMRS cache full: requested {requested} bytes, {available} available"
            ),
            BtrimError::BufferExhausted { pinned, capacity } => write!(
                f,
                "buffer cache exhausted: {pinned} of {capacity} frames pinned"
            ),
            BtrimError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            BtrimError::ChecksumMismatch(p) => {
                write!(f, "checksum mismatch on {p} (torn write or corruption)")
            }
            BtrimError::ShortBuffer { expected, got } => {
                write!(f, "page buffer length {got}, expected {expected}")
            }
            BtrimError::ReadOnly(reason) => {
                write!(f, "engine is read-only: {reason}")
            }
            BtrimError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
            BtrimError::DuplicateKey(msg) => write!(f, "duplicate key: {msg}"),
        }
    }
}

impl std::error::Error for BtrimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BtrimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BtrimError {
    fn from(e: io::Error) -> Self {
        BtrimError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BtrimError::LockNotGranted {
            row: RowId(42),
            holder: Some(TxnId(7)),
        };
        let s = e.to_string();
        assert!(s.contains("RowId(42)"));
        assert!(s.contains("TxnId(7)"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: BtrimError = io::Error::other("boom").into();
        assert!(matches!(e, BtrimError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn fault_variants_display() {
        let e = BtrimError::ChecksumMismatch(PageId(5));
        assert!(e.to_string().contains("PageId(5)"));
        let e = BtrimError::ShortBuffer {
            expected: 8192,
            got: 100,
        };
        assert!(e.to_string().contains("8192"));
        assert!(e.to_string().contains("100"));
        let e = BtrimError::ReadOnly("log device failed".into());
        assert!(e.to_string().contains("read-only"));
        assert!(e.to_string().contains("log device failed"));
    }

    #[test]
    fn imrs_full_reports_sizes() {
        let e = BtrimError::ImrsFull {
            requested: 128,
            available: 16,
        };
        let s = e.to_string();
        assert!(s.contains("128"));
        assert!(s.contains("16"));
    }
}
