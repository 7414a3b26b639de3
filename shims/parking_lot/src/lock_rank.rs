//! The declared lock hierarchy of the BTrim engine. Engine crates name
//! a lock's rank once, where they build it
//! (`Mutex::with_rank(lock_rank::FRAME, …)`), and the debug-build
//! witness in this crate checks every blocking acquisition against it.
//!
//! A lock may only be acquired (blocking) while every lock currently
//! held by the thread has a strictly smaller rank. Rank 0 is "unranked":
//! such locks are invisible to the witness and must be leaves (never
//! held across another ranked acquisition). The order below follows
//! from the engine:
//!
//! * The maintenance gate is taken first and held across an entire
//!   pack/GC/tuner cycle, which fetches pages and appends WAL records —
//!   so engine state ranks below everything.
//! * `evict_one` publishes a frame-state transition (frame `io` mutex)
//!   while still inside the shard lock — so frames rank above shards.
//! * An IMRS chain stripe is held for one version-chain edit (push,
//!   rollback, truncation, teardown): it may be taken with a frame latch
//!   held, and inside it only the arena's and the allocator's unranked
//!   leaf mutexes are taken — so the stripes sit between frames and the
//!   side store. (The RID-Map itself is all-atomic and has no lock.)
//! * A log's barrier reads the sink's last LSN (`record_count()`) and
//!   syncs (`sink.flush()`) outside its state lock — both take the
//!   log's inner lock — so the barrier state ranks above the WAL log,
//!   making either one under the barrier lock an immediate witness
//!   failure.

/// Engine maintenance gate (`core::maintenance::Maintenance::gate`).
pub const ENGINE_STATE: u16 = 10;
/// The checkpoint gate (`core::checkpoint::Checkpointer::gate`): one
/// checkpoint at a time. `Actor::Checkpoint` takes it under the
/// maintenance gate; a checkpoint then closes the move gate.
pub const CHECKPOINT_GATE: u16 = 11;
/// The movement gate (`core::movement::MoveGate::gate`): shared by a
/// foreground move for its whole mini-transaction, exclusive to a
/// syslogs sync — a commit's, a checkpoint's (under the checkpoint
/// gate), a pack or freeze batch's (under the maintenance gate).
pub const MOVE_GATE: u16 = 12;
/// Commits between their timestamp reservation and their last log
/// append (`core::checkpoint::Checkpointer::committing`). A commit takes
/// it holding no ranked lock; a checkpoint takes it under its own gate
/// and the move gate, and reads the clock and begins its sweep reader
/// (the registry) inside it.
pub const COMMIT_TABLE: u16 = 14;
/// Transaction-registry overflow table (`txn::manager::TxnRegistry::
/// overflow`). Taken only when more transactions are in flight than the
/// registry has lock-free slots; begin/commit/abort on the slot path and
/// every snapshot read are atomics-only and never touch it. Ranks below
/// the storage locks because `begin` can run under the maintenance gate
/// (internal migration transactions) but never inside a shard or frame.
pub const TXN_REGISTRY: u16 = 15;
/// Buffer-cache shard locks (`pagestore::buffer::Shard::inner`).
pub const BUFFER_SHARD: u16 = 20;
/// Frame latches: page data `RwLock` and the frame-state `io` mutex
/// (`pagestore::buffer::Frame::{data, io}`). Never nested in each other.
pub const FRAME: u16 = 30;
/// IMRS version-chain stripes (`imrs::store::ImrsStore::chain`), one of
/// 64 picked by RowId: every structural change to a row's chain.
pub const IMRS_CHAIN: u16 = 40;
/// Before-image side-store shards (`core::sidestore::SideStore::shards`).
/// Writers stash a pre-update image *before* touching the page (so they
/// hold no frame latch), and retirement (a commit's, GC's) takes one
/// shard at a time, never with the unranked retirement queue held —
/// between the chain stripes and the log.
pub const SIDE_STORE: u16 = 45;
/// WAL inner locks (`wal::log::{MemLog, FileLog}::inner`).
pub const WAL_LOG: u16 = 50;
/// Active-transaction syslog floor table (`core::checkpoint::
/// Checkpointer::txn_floor`): first-record LSN of every transaction
/// alive on the page log, read by the fuzzy checkpoint to pick its
/// low-water truncation LSN. Maintained around the syslogs append —
/// the log lock is not held then, but DML callers may still hold locks
/// up to the WAL tier, so the table ranks just above the log.
pub const TXN_LOG_FLOOR: u16 = 55;
/// A log's barrier state — its durable LSN and whether a leader is
/// syncing (`wal::log::LogWriter::barrier`): each log's group commit.
/// Above `WAL_LOG`, so `record_count()` and `flush()` on the sink are
/// called outside it.
pub const GROUP_COMMIT: u16 = 60;

/// `(class name, rank)` pairs, ascending — what witness panic messages
/// cite.
pub const LOCK_RANKS: &[(&str, u16)] = &[
    ("engine-state", ENGINE_STATE),
    ("checkpoint-gate", CHECKPOINT_GATE),
    ("move-gate", MOVE_GATE),
    ("commit-table", COMMIT_TABLE),
    ("txn-registry", TXN_REGISTRY),
    ("buffer-shard", BUFFER_SHARD),
    ("frame", FRAME),
    ("imrs-chain", IMRS_CHAIN),
    ("side-store", SIDE_STORE),
    ("wal-log", WAL_LOG),
    ("txn-log-floor", TXN_LOG_FLOOR),
    ("group-commit", GROUP_COMMIT),
];

// The table is checked when this crate compiles: ranks strictly
// ascending above the unranked 0, and no class name given twice.
const _: () = {
    assert!(LOCK_RANKS[0].1 > 0, "rank 0 means unranked");
    let mut i = 1;
    while i < LOCK_RANKS.len() {
        assert!(
            LOCK_RANKS[i - 1].1 < LOCK_RANKS[i].1,
            "LOCK_RANKS must be strictly ascending"
        );
        let mut j = 0;
        while j < i {
            assert!(
                !str_eq(LOCK_RANKS[j].0, LOCK_RANKS[i].0),
                "LOCK_RANKS names a class twice"
            );
            j += 1;
        }
        i += 1;
    }
};

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Display name for a rank (witness panic messages).
pub fn rank_name(rank: u16) -> &'static str {
    let mut i = 0;
    while i < LOCK_RANKS.len() {
        if LOCK_RANKS[i].1 == rank {
            return LOCK_RANKS[i].0;
        }
        i += 1;
    }
    "unranked"
}
