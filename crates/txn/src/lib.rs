//! Transactions and row-level locking.
//!
//! * [`manager`] — transaction lifecycle: begin (snapshot timestamp),
//!   commit (ticks the database commit timestamp, §VI.D), abort, the
//!   oldest-active-snapshot watermark that bounds IMRS garbage
//!   collection, and the committed-transaction counter that drives ILM
//!   tuning windows (§V.B).
//! * [`locks`] — a sharded row lock manager with shared/exclusive
//!   modes, blocking acquisition with timeout, and the *conditional*
//!   (try) locks pack threads use so they never block behind active
//!   DMLs (§VII.B).

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

pub mod locks;
pub mod manager;

pub use locks::{LockManager, LockMode};
pub use manager::{TxnHandle, TxnManager};
