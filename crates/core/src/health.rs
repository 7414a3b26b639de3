//! Engine health: the storage-error escalation and the write stop.

use parking_lot::RwLock;

use btrim_common::atomics::Relaxed;
use btrim_common::{BtrimError, Result};

/// Consecutive storage errors after which the engine reports
/// [`HealthState::Degraded`].
pub const HEALTH_DEGRADE_AFTER: u64 = 3;
/// Consecutive storage errors after which the engine turns
/// [`HealthState::ReadOnly`].
pub const HEALTH_READONLY_AFTER: u64 = 8;

/// Engine health, driven by storage-error observations.
///
/// * `Healthy` — normal operation.
/// * `Degraded` — storage errors are accumulating; background work
///   backs off, but reads and writes still run.
/// * `ReadOnly` — the engine stopped accepting writes (persistent log
///   failure, or too many consecutive storage errors). Reads keep
///   working from memory and the cache; write entry points return
///   [`BtrimError::ReadOnly`]. Sticky until restart/recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthState {
    /// Normal operation.
    Healthy,
    /// Storage errors are accumulating; still fully operational.
    Degraded {
        /// What pushed the engine out of `Healthy`.
        reason: String,
    },
    /// Writes rejected; reads still served. Sticky.
    ReadOnly {
        /// What forced the write stop.
        reason: String,
    },
}

impl HealthState {
    /// Whether write transactions are still accepted.
    pub fn writable(&self) -> bool {
        !matches!(self, HealthState::ReadOnly { .. })
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded { reason } => write!(f, "degraded ({reason})"),
            HealthState::ReadOnly { reason } => write!(f, "read-only ({reason})"),
        }
    }
}

impl crate::engine::Engine {
    /// Current engine health (storage-error driven).
    pub fn health(&self) -> HealthState {
        self.sh.health.state()
    }
}

/// The verdict and the error counts that drive it.
pub(crate) struct Health {
    state: RwLock<HealthState>,
    /// Storage errors since the last success; drives the
    /// Healthy → Degraded → ReadOnly escalation.
    consecutive_errors: Relaxed<u64>,
    /// Lifetime storage errors observed outside the buffer cache.
    storage_errors: Relaxed<u64>,
}

impl Health {
    pub fn new() -> Self {
        Health {
            state: RwLock::new(HealthState::Healthy),
            consecutive_errors: Relaxed::new(0),
            storage_errors: Relaxed::new(0),
        }
    }

    /// Current health verdict.
    pub fn state(&self) -> HealthState {
        self.state.read().clone()
    }

    /// Lifetime storage errors (log appends, flushes, pack, checkpoint).
    pub fn storage_errors(&self) -> u64 {
        self.storage_errors.load()
    }

    /// Fail fast when the engine no longer accepts writes.
    pub fn check_writable(&self) -> Result<()> {
        match &*self.state.read() {
            HealthState::ReadOnly { reason } => Err(BtrimError::ReadOnly(reason.clone())),
            _ => Ok(()),
        }
    }

    /// A failure that writing on would compound: a log append that may
    /// have left a torn record (more behind it makes the tail
    /// unrecoverable), an abort that could not put a before-image back.
    /// Count the error, stop writing immediately, hand the error back.
    pub fn fail_stop<T>(&self, what: &str, e: BtrimError) -> Result<T> {
        self.storage_errors.fetch_add(1);
        let mut h = self.state.write();
        if h.writable() {
            *h = HealthState::ReadOnly {
                reason: format!("{what} failed: {e}"),
            };
        }
        Err(e)
    }

    /// Record a storage error from a log or maintenance path and
    /// escalate health when errors keep coming. Only I/O-class errors
    /// count; logical errors (duplicate key, lock timeouts, …) do not.
    pub fn note_storage_error(&self, ctx: &str, e: &BtrimError) {
        if !matches!(e, BtrimError::Io(_) | BtrimError::ChecksumMismatch(_)) {
            return;
        }
        self.storage_errors.fetch_add(1);
        let n = self.consecutive_errors.fetch_add(1) + 1;
        let mut h = self.state.write();
        match &*h {
            HealthState::ReadOnly { .. } => {}
            _ if n >= HEALTH_READONLY_AFTER => {
                *h = HealthState::ReadOnly {
                    reason: format!("{ctx}: {e} ({n} consecutive storage errors)"),
                };
            }
            _ if n >= HEALTH_DEGRADE_AFTER => {
                *h = HealthState::Degraded {
                    reason: format!("{ctx}: {e}"),
                };
            }
            _ => {}
        }
    }

    /// Record the outcome of a storage operation (a commit's log
    /// writes, a checkpoint, a movement batch's flush).
    pub fn note(&self, ctx: &str, outcome: &Result<()>) {
        match outcome {
            Ok(()) => self.note_storage_ok(),
            Err(e) => self.note_storage_error(ctx, e),
        }
    }

    /// Record a storage success: clears the consecutive-error counter
    /// and recovers Degraded → Healthy. ReadOnly is sticky.
    fn note_storage_ok(&self) {
        if self.consecutive_errors.swap(0) > 0 {
            let mut h = self.state.write();
            if matches!(*h, HealthState::Degraded { .. }) {
                *h = HealthState::Healthy;
            }
        }
    }
}
