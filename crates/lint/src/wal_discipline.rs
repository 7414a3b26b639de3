// The declared WAL-first mutation discipline — consumed by the
// `wal-before-mutation` rule (and kept beside `lock_hierarchy.rs` so
// the discipline tables live in one place). The commit/migration life
// cycle (paper §IV, §VI) demands
// that every *destructive* page / RID-Map / IMRS mutation is dominated
// by a log append on every control-flow path: a failed append must
// leave committed data untouched, and recovery must be able to replay
// or discard what the log says. The reverse order has produced real
// bugs twice (PR 2's lost acknowledged row, PR 8's freeze ordering).
//
// *Additive* operations on uncommitted data (`heap.insert`,
// `store.insert_row`, staging redo in a per-txn buffer) are exempt by
// design: recovery gates them on the transaction's commit verdict, so
// an unlogged loser is simply discarded. Replay/undo contexts apply
// the log itself and are classified out below.

/// Destructive mutation methods, keyed `(receiver name, method)`. The
/// receiver is the field or binding before the dot (`sh.ridmap.set` →
/// `ridmap`), file-scoped to `crates/core` by the rule itself.
pub const MUTATION_METHODS: &[(&str, &str, &str)] = &[
    ("ridmap", "set", "RID-Map location flip"),
    ("ridmap", "remove", "RID-Map entry removal"),
    ("ridmap", "compare_and_set", "RID-Map location flip"),
    ("heap", "delete", "page slot delete"),
    ("heap", "try_update_in_place", "in-place page overwrite"),
    ("heap", "try_update_in_place_logged", "in-place page overwrite"),
    ("store", "remove_row", "IMRS row removal"),
    ("ext", "mark_gone", "frozen-extent slot retirement"),
];

/// Seed append functions: a call to any of these marks the path as
/// logged. `append`/`append_batch` are the `LogSink` trait surface;
/// the `append_*` family are the engine's funnels in front of it.
pub const APPEND_FNS: &[&str] = &[
    "append",
    "append_batch",
    "append_sys",
    "append_imrs",
    "append_imrs_batch",
];

/// Files that ARE the replay path: every mutation in them applies
/// records already read back from the log.
pub const REPLAY_FILES: &[&str] = &["crates/core/src/recovery.rs"];

/// Functions classified as replay/undo context wherever they live:
/// they apply inverses of operations whose forward images were logged
/// (or never acknowledged), so they mutate without appending.
pub const REPLAY_FNS: &[&str] = &[
    "apply_undo",
    "restore_page_row",
    "apply_redo",
    "adopt_pages",
];
