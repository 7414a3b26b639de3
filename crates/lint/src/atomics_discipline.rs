// The declared atomics discipline — the single source of truth shared
// by the static `atomics-ordering` lint (`btrim-lint`, which `include!`s
// this file as `btrim_lint::atomics`) and the debug-build witness in
// `btrim-common` (`btrim_common::atomics::discipline`). Editing a
// protocol here retunes both checkers at once; they cannot drift apart —
// the same ONE-table pattern as `lock_hierarchy.rs`.
//
// Every cross-thread atomic field in the `common`, `imrs`, `txn`,
// `pagestore`, and `core` crates declares its publish/consume protocol:
//
// * `P_RELAXED` — a monotone counter, advisory hint, or id allocator.
//   No ordering guarantees are needed; any `Ordering` is acceptable.
// * `P_ACQREL`  — release/acquire publication: stores must be at least
//   `Release`, loads at least `Acquire`, read-modify-writes at least
//   `AcqRel` (a CAS failure ordering is a load). Anything weaker is a
//   finding unless the site carries a reasoned
//   `// lint: allow(atomics-ordering) -- <why>` escape.
// * `P_SEQCST`  — part of a store-load (Dekker-style) protocol where
//   total order matters; every access must be `SeqCst`.
//
// Fields are keyed `(file suffix, field name)` — the same file-scoped
// naming as `LOCK_SITES`, so `inner` can mean different things in
// different crates. A few entries name *local aliases* (a `&AtomicU64`
// parameter or loop variable) rather than a struct field; their notes
// say which field they alias. The lint's completeness check walks every
// `name: AtomicX` struct-field declaration in the five crates and
// demands an entry here, so a new atomic cannot land undeclared.

/// Any ordering is acceptable (counters, hints, allocators).
pub const P_RELAXED: u8 = 0;
/// Release-store / Acquire-load / AcqRel-RMW publication protocol.
pub const P_ACQREL: u8 = 1;
/// Store-load total-order protocol: every access SeqCst.
pub const P_SEQCST: u8 = 2;

/// Ordering codes (`std::sync::atomic::Ordering` flattened to `u8` so
/// this file compiles in both the linter and the engine).
pub const O_RELAXED: u8 = 0;
pub const O_ACQUIRE: u8 = 1;
pub const O_RELEASE: u8 = 2;
pub const O_ACQREL: u8 = 3;
pub const O_SEQCST: u8 = 4;

/// Access-kind codes for [`ordering_ok`].
pub const OP_LOAD: u8 = 0;
pub const OP_STORE: u8 = 1;
pub const OP_RMW: u8 = 2;

/// Is `ord` strong enough for an access of kind `op` on a field
/// declared with `proto`? (A CAS checks its success ordering as
/// `OP_RMW` and its failure ordering as `OP_LOAD`.)
pub const fn ordering_ok(proto: u8, op: u8, ord: u8) -> bool {
    match proto {
        P_RELAXED => true,
        P_ACQREL => match op {
            OP_LOAD => matches!(ord, O_ACQUIRE | O_SEQCST),
            OP_STORE => matches!(ord, O_RELEASE | O_SEQCST),
            _ => matches!(ord, O_ACQREL | O_SEQCST),
        },
        _ => ord == O_SEQCST,
    }
}

/// Display name for a protocol (witness panics, lint findings).
pub fn protocol_name(proto: u8) -> &'static str {
    match proto {
        P_RELAXED => "relaxed",
        P_ACQREL => "acq-rel",
        P_SEQCST => "seq-cst",
        _ => "unknown",
    }
}

/// `(file suffix, field name, protocol, why)` for every cross-thread
/// atomic field in common/imrs/txn/pagestore/core.
pub const ATOMIC_FIELDS: &[(&str, &str, u8, &str)] = &[
    // ----- common: commit clock, histograms, trace ring -------------
    (
        "crates/common/src/clock.rs",
        "allocated",
        P_ACQREL,
        "reserve/publish clock: fetch_add hands out timestamps; fetch_max on restart republishes",
    ),
    (
        "crates/common/src/clock.rs",
        "published",
        P_ACQREL,
        "snapshot horizon: now() acquires what the in-order publish CAS released",
    ),
    ("crates/common/src/hist.rs", "buckets", P_RELAXED, "histogram counters; snapshots tolerate tearing"),
    ("crates/common/src/hist.rs", "bucket", P_RELAXED, "alias: one `buckets` word in iteration"),
    ("crates/common/src/hist.rs", "count", P_RELAXED, "histogram counter"),
    ("crates/common/src/hist.rs", "sum", P_RELAXED, "histogram counter"),
    ("crates/common/src/hist.rs", "max", P_RELAXED, "monotone fetch_max watermark"),
    ("crates/common/src/ring.rs", "pushed", P_RELAXED, "trace-ring counter"),
    ("crates/common/src/ring.rs", "dropped", P_RELAXED, "trace-ring counter"),
    (
        "crates/common/src/counters.rs",
        "NEXT_THREAD_SLOT",
        P_RELAXED,
        "thread→shard slot allocator: only uniqueness-mod-SHARDS matters, not order",
    ),
    // ----- imrs: arena version chains, RID-Map, store accounting ----
    (
        "crates/imrs/src/arena.rs",
        "txn",
        P_RELAXED,
        "frozen before publish; the Release store of the chain link publishes it",
    ),
    (
        "crates/imrs/src/arena.rs",
        "commit_ts",
        P_ACQREL,
        "stamped once at commit (Release); visibility reads acquire it",
    ),
    (
        "crates/imrs/src/arena.rs",
        "meta",
        P_RELAXED,
        "frozen before publish; the Release store of the chain link publishes it",
    ),
    ("crates/imrs/src/arena.rs", "ha", P_RELAXED, "frozen before publish (see `meta`)"),
    ("crates/imrs/src/arena.rs", "hb", P_RELAXED, "frozen before publish (see `meta`)"),
    (
        "crates/imrs/src/arena.rs",
        "prev",
        P_ACQREL,
        "version-chain link: Release-published so readers acquire the node it points at",
    ),
    ("crates/imrs/src/arena.rs", "len", P_RELAXED, "arena high-water counter"),
    (
        "crates/imrs/src/arena.rs",
        "head",
        P_ACQREL,
        "alias: the RID-Map `head` cell passed into push/pop (chain publication point)",
    ),
    (
        "crates/imrs/src/alloc.rs",
        "max_chunks",
        P_ACQREL,
        "arbiter-published budget; allocators acquire the retarget",
    ),
    ("crates/imrs/src/alloc.rs", "used", P_RELAXED, "byte accounting"),
    ("crates/imrs/src/alloc.rs", "alloc_calls", P_RELAXED, "counter"),
    ("crates/imrs/src/alloc.rs", "free_calls", P_RELAXED, "counter"),
    ("crates/imrs/src/alloc.rs", "quarantined", P_RELAXED, "byte accounting"),
    (
        "crates/imrs/src/ridmap.rs",
        "loc",
        P_ACQREL,
        "row-location word: the publication point readers acquire before chasing a location",
    ),
    (
        "crates/imrs/src/ridmap.rs",
        "head",
        P_ACQREL,
        "version-chain head link (written by the arena with Release)",
    ),
    (
        "crates/imrs/src/ridmap.rs",
        "part",
        P_ACQREL,
        "partition + origin + ILM-queue claim bit: arrival Release-stores the word before `head` publishes the row; the AcqRel fetch_or decides one enqueuer, the fetch_and reopens",
    ),
    ("crates/imrs/src/ridmap.rs", "last_access", P_RELAXED, "hotness hint"),
    ("crates/imrs/src/ridmap.rs", "reuse", P_RELAXED, "slot-generation hint"),
    ("crates/imrs/src/ridmap.rs", "next_row_id", P_RELAXED, "id allocator (fetch_add/fetch_max)"),
    ("crates/imrs/src/ridmap.rs", "mapped", P_RELAXED, "entry counter"),
    (
        "crates/imrs/src/row.rs",
        "head_cell",
        P_ACQREL,
        "alias: the RID-Map `head` cell (chain publication point)",
    ),
    ("crates/imrs/src/store.rs", "bytes", P_RELAXED, "byte accounting"),
    ("crates/imrs/src/store.rs", "rows", P_RELAXED, "row accounting"),
    // ----- txn: registry reservation protocol ------------------------
    ("crates/txn/src/manager.rs", "next_txn", P_RELAXED, "id allocator"),
    ("crates/txn/src/manager.rs", "committed", P_RELAXED, "counter"),
    ("crates/txn/src/manager.rs", "aborted", P_RELAXED, "counter"),
    (
        "crates/txn/src/manager.rs",
        "slots",
        P_SEQCST,
        "store-load reservation protocol: the SeqCst CAS + fences order slot claims against horizon scans",
    ),
    (
        "crates/txn/src/manager.rs",
        "slot",
        P_SEQCST,
        "alias: one `slots` cell in the horizon scan",
    ),
    (
        "crates/txn/src/manager.rs",
        "overflow_len",
        P_SEQCST,
        "paired with `slots`: the scan must observe the overflow spill of any reservation it missed",
    ),
    (
        "crates/txn/src/manager.rs",
        "cached_horizon",
        P_ACQREL,
        "monotone watermark cache published to GC/pack/purge",
    ),
    // ----- pagestore: buffer cache, disk, heap, frozen extents -------
    ("crates/pagestore/src/disk.rs", "reads", P_RELAXED, "counter"),
    ("crates/pagestore/src/disk.rs", "writes", P_RELAXED, "counter"),
    (
        "crates/pagestore/src/disk.rs",
        "next_page",
        P_ACQREL,
        "allocation fence: bounds-checked reads acquire the Release of allocate()",
    ),
    ("crates/pagestore/src/heap.rs", "live_rows", P_RELAXED, "row accounting"),
    (
        "crates/pagestore/src/buffer.rs",
        "pin",
        P_ACQREL,
        "pin count gates eviction; the unpin must be visible before the evictor frees the frame",
    ),
    ("crates/pagestore/src/buffer.rs", "referenced", P_RELAXED, "clock-hand hint"),
    (
        "crates/pagestore/src/buffer.rs",
        "dirty",
        P_ACQREL,
        "AcqRel swap claims the flush; Release store re-publishes on write failure",
    ),
    (
        "crates/pagestore/src/buffer.rs",
        "state",
        P_ACQREL,
        "frame lifecycle (pending/ready/evicting): readers acquire the page bytes the state publishes",
    ),
    ("crates/pagestore/src/buffer.rs", "hits", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "misses", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "evictions", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "flushes", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "latch_contention", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "io_waits", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "io_errors", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "io_retries", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "checksum_failures", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "capacity_shifts", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/buffer.rs", "lock_contention", P_RELAXED, "stats counter"),
    (
        "crates/pagestore/src/buffer.rs",
        "capacity",
        P_ACQREL,
        "arbiter-published budget; admission and shrink-debt math acquire the retarget",
    ),
    (
        "crates/pagestore/src/buffer.rs",
        "resident",
        P_ACQREL,
        "admission gate: the fetch_update CAS claims a slot; decrements release the freed one",
    ),
    (
        "crates/pagestore/src/buffer.rs",
        "shard_cap",
        P_ACQREL,
        "arbiter-published per-shard cap (see `capacity`)",
    ),
    (
        "crates/pagestore/src/extent.rs",
        "encoded_len",
        P_RELAXED,
        "written once before the extent publishes through the directory lock",
    ),
    (
        "crates/pagestore/src/extent.rs",
        "live",
        P_ACQREL,
        "liveness bitmap: AcqRel mark-gone races snapshot scans that acquire the word",
    ),
    (
        "crates/pagestore/src/extent.rs",
        "live_word",
        P_ACQREL,
        "alias: one `live` bitmap word",
    ),
    ("crates/pagestore/src/extent.rs", "live_count", P_RELAXED, "zone-pruning hint"),
    (
        "crates/pagestore/src/extent.rs",
        "next",
        P_RELAXED,
        "extent-id allocator; directory slots publish through the `publish` lock, the Acquire bound-reads tolerate staleness",
    ),
    ("crates/pagestore/src/extent.rs", "count", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/extent.rs", "raw_bytes", P_RELAXED, "stats counter"),
    ("crates/pagestore/src/extent.rs", "encoded_bytes", P_RELAXED, "stats counter"),
    // ----- core: engine control plane, maintenance, side store -------
    (
        "crates/core/src/maintenance.rs",
        "last_run",
        P_RELAXED,
        "advisory window claim; maintenance work serializes on the gate mutex",
    ),
    ("crates/core/src/maintenance.rs", "background", P_RELAXED, "control flag"),
    ("crates/core/src/health.rs", "consecutive_errors", P_RELAXED, "health counter"),
    ("crates/core/src/health.rs", "storage_errors", P_RELAXED, "health counter"),
    ("crates/core/src/checkpoint.rs", "ordinal", P_RELAXED, "checkpoint counter"),
    ("crates/core/src/checkpoint.rs", "last_truncate_upto", P_RELAXED, "monotone fetch_max watermark"),
    (
        "crates/core/src/engine.rs",
        "moves_logged",
        P_SEQCST,
        "store-load with the two log appends around it: a move counts itself between its sysimrslogs append and its syslogs Commit append, a committer reads the count before its syslogs barrier",
    ),
    (
        "crates/core/src/engine.rs",
        "moves_durable",
        P_SEQCST,
        "fetch_max watermark compared against moves_logged; same protocol",
    ),
    (
        "crates/core/src/arbiter.rs",
        "last_window_at",
        P_RELAXED,
        "advisory window claim; the shifts it gates run under the maintenance gate",
    ),
    ("crates/core/src/arbiter.rs", "windows_run", P_RELAXED, "counter"),
    ("crates/core/src/arbiter.rs", "shifts_applied", P_RELAXED, "counter"),
    ("crates/core/src/arbiter.rs", "bytes_to_imrs", P_RELAXED, "counter"),
    ("crates/core/src/arbiter.rs", "bytes_to_buffer", P_RELAXED, "counter"),
    ("crates/core/src/pack.rs", "reject_new", P_RELAXED, "admission hint"),
    ("crates/core/src/pack.rs", "cycles", P_RELAXED, "counter"),
    ("crates/core/src/pack.rs", "pack_txn_commits", P_RELAXED, "counter"),
    ("crates/core/src/pack.rs", "next_internal", P_RELAXED, "id allocator"),
    ("crates/core/src/catalog.rs", "pack_owed", P_RELAXED, "advisory pack carry"),
    ("crates/core/src/gc.rs", "processed", P_RELAXED, "counter"),
    ("crates/core/src/gc.rs", "bytes_freed", P_RELAXED, "counter"),
    ("crates/core/src/gc.rs", "rows_removed", P_RELAXED, "counter"),
    ("crates/core/src/freeze.rs", "extents_frozen", P_RELAXED, "counter"),
    ("crates/core/src/freeze.rs", "rows_frozen", P_RELAXED, "counter"),
    ("crates/core/src/freeze.rs", "raw_bytes", P_RELAXED, "counter"),
    ("crates/core/src/freeze.rs", "encoded_bytes", P_RELAXED, "counter"),
    ("crates/core/src/freeze.rs", "rows_thawed", P_RELAXED, "counter"),
    ("crates/core/src/freeze.rs", "rows_skipped_hot", P_RELAXED, "counter"),
    ("crates/core/src/freeze.rs", "rows_skipped_recent", P_RELAXED, "counter"),
    (
        "crates/core/src/sidestore.rs",
        "ts",
        P_ACQREL,
        "before-image commit stamp: readers acquire the payload the Release stamp published",
    ),
    ("crates/core/src/sidestore.rs", "bytes", P_RELAXED, "byte accounting"),
    ("crates/core/src/sidestore.rs", "entries", P_RELAXED, "entry accounting"),
    ("crates/core/src/tsf.rs", "tau", P_RELAXED, "learned threshold (advisory)"),
    ("crates/core/src/tsf.rs", "last_learned_at", P_RELAXED, "advisory window claim"),
    ("crates/core/src/tsf.rs", "learn_count", P_RELAXED, "counter"),
    ("crates/core/src/tuner.rs", "insert_enabled", P_RELAXED, "advisory ILM toggle"),
    ("crates/core/src/tuner.rs", "migrate_enabled", P_RELAXED, "advisory ILM toggle"),
    ("crates/core/src/tuner.rs", "cache_enabled", P_RELAXED, "advisory ILM toggle"),
    ("crates/core/src/tuner.rs", "disable_votes", P_RELAXED, "hysteresis counter"),
    ("crates/core/src/tuner.rs", "enable_votes", P_RELAXED, "hysteresis counter"),
    ("crates/core/src/tuner.rs", "toggles", P_RELAXED, "counter"),
    ("crates/core/src/tuner.rs", "last_window_at", P_RELAXED, "advisory window claim"),
    ("crates/core/src/tuner.rs", "windows_run", P_RELAXED, "counter"),
];

/// Look up the declared protocol for `(file, field)`; `file` may be a
/// full workspace-relative path (matched by suffix).
pub fn declared_protocol(file: &str, field: &str) -> Option<u8> {
    ATOMIC_FIELDS
        .iter()
        .find(|(f, n, _, _)| file.ends_with(f) && *n == field)
        .map(|&(_, _, p, _)| p)
}
