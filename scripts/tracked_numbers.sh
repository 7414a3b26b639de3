#!/usr/bin/env bash
# Tracked numbers (ROADMAP "Quality of design"): computed, not
# hand-counted. Run from anywhere; prints one `name value` pair per
# line. CI appends the output to the test job's step summary, and a PR
# description quotes it for the parent and for the change.
#
# `--check <budget-file>` (CI runs it with scripts/tracked_budgets.txt)
# also exits non-zero when a number exceeds the `name value` budget the
# file gives it: a PR that adds a knob or grows engine.rs has to raise
# a number in its own diff.
set -euo pipefail
budgets=""
if [ "${1:-}" = "--check" ]; then
    budgets=$(realpath "${2:?--check needs a budget file}")
fi
cd "$(dirname "$0")/.."

# Non-blank lines that are not `//` comments (doc comments included).
code_lines() { cat "$@" | grep -v '^\s*//' | grep -vc '^\s*$' || true; }
# Appends of a page-log record kind from crates/core/src: on their own,
# or staged into a move's one batch append (`RecordBuf::push`).
append_sites() { cat crates/core/src/*.rs | grep -cE "(append_sys|push)\(&PageLogRecord::$1\b" || true; }
# Calls of a function (not its definition) from crates/core/src.
call_sites() { cat crates/core/src/*.rs | grep -v "fn $1(" | grep -c "\b$1(" || true; }

# Lines naming the checksum's first prime (XXH64's PRIME64_1, see
# crates/common/src/checksum.rs) outside `#[cfg(test)]` items: one per
# implementation.
checksum_impls() { awk '
    FNR == 1 { pending = 0; test_fn = 0; test_mod = 0 }
    /#\[cfg\(test\)\]/ { pending = 1; next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { if (pending) test_mod = 1; pending = 0 }
    /^[[:space:]]*(pub(\([a-z]+\))? )?(const )?fn / { test_fn = pending; pending = 0 }
    /0x9E37_79B1_85EB_CA87/ && !test_fn && !test_mod { n++ }
    END { print n + 0 }' "$@"; }

src_files=$(find crates/*/src -name '*.rs' | sort)
# The row-movement path: the four files that held its copies, plus
# the module that replaced them (absent before PR 14).
movement_files=$(find crates/core/src -name engine.rs -o -name pack.rs -o -name freeze.rs \
    -o -name recovery.rs -o -name movement.rs)

numbers() {
    echo "engine_rs_lines $(wc -l < crates/core/src/engine.rs)"
    echo "crates_src_lines $(cat $src_files | wc -l)"
    echo "crates_src_code_lines $(code_lines $src_files)"
    # The same without in-file tests (each file up to its first top-level
    # `#[cfg(test)]`): a budget that deleting tests cannot meet.
    echo "crates_src_nontest_code_lines $(for f in $src_files; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | code_lines -)"
    echo "movement_path_code_lines $(code_lines $movement_files)"
    # Integration tests: the root suites and each crate's `tests/`.
    echo "integration_test_lines $(code_lines $(find tests crates/*/tests -name '*.rs' | sort))"
    # The B+tree without its in-file tests (everything before the first
    # `#[cfg(test)]`).
    echo "btree_code_lines $(sed '/^#\[cfg(test)\]/,$d' crates/index/src/btree.rs | code_lines -)"
    echo "bench_bins $(find crates/bench/src/bin -name '*.rs' | wc -l)"
    echo "engine_config_fields $(sed -n '/^pub struct EngineConfig {/,/^}/p' crates/core/src/config.rs | grep -c '^    pub [a-z_0-9]*:')"
    echo "shared_fields $(sed -n '/^pub(crate) struct Shared {/,/^}/p' crates/core/src/engine.rs | grep -c '^    \(pub \)\?[a-z_0-9]*:')"
    # A transaction remembers each change once: its fields, and the
    # kinds of entry in its one write set (`UndoOp`'s successor).
    echo "transaction_fields $(sed -n '/^pub struct Transaction {/,/^}/p' crates/core/src/txn_ctx.rs | grep -c '^    pub(crate) [a-z_0-9]*:')"
    echo "write_set_variants $(sed -n '/^pub(crate) enum Write {/,/^}/p' crates/core/src/txn_ctx.rs | grep -c '^    [A-Z][A-Za-z]* *[{(,]')"
    # The log-record vocabulary: the variants of both logs' record enums.
    echo "log_record_kinds $(sed -n '/^pub enum \(PageLogRecord\|ImrsLogRecord\) {/,/^}/p' crates/wal/src/record.rs | grep -c '^    [A-Z][A-Za-z]* *[{(,]')"
    # Per-partition state belongs on the `Partition` record: struct
    # fields keyed by partition id (function-local groupings excluded).
    # The one left is `ImrsStore::usage`, kept because the frozen
    # benchmark probe hands `insert_row` a bare `PartitionId`.
    echo "partition_maps $(cat $src_files | grep 'HashMap<PartitionId' | grep -vc '^\s*let ' || true)"
    # Maps keyed by RowId besides the RID-Map: struct fields (or the type
    # aliases they are spelled through) that own a map from RowId,
    # outside in-file tests. Two, neither a row directory — the RID-Map
    # stays the only thing that says where a row is: the lock manager's
    # table, and the side store's page-row history (`sidestore::Shard`:
    # per-row state, a row's stashed before-images; keyed by the row so
    # that it follows the row when its address changes).
    echo "rowid_maps $(for f in $src_files; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -cE '^\s*(pub(\([a-z]+\))? )?([a-z_0-9]+:|type [A-Za-z]+ =) [^&]*(Hash|BTree)Map<RowId' || true)"
    echo "checksum_impls $(checksum_impls $src_files)"
    # Every suppression: `#[allow(…)]` / `#[expect(…)]` attributes,
    # outer or inner.
    echo "lint_allow_escapes $(grep -rnE '#!?\[(allow|expect)\(' crates --include='*.rs' | wc -l)"
    echo "begin_append_sites $(append_sites Begin)"
    echo "commit_append_sites $(append_sites Commit)"
    # A user transaction announces itself in syslogs only on a page arm.
    echo "ensure_begin_call_sites $(call_sites ensure_begin)"
    # Where sysimrslogs is settled only as far as a syslogs barrier
    # needs: the move gate (a page-only commit, a freeze batch, a
    # checkpoint) and a checkpoint's image snapshot.
    echo "flush_to_call_sites $(call_sites flush_to)"
    # Open items pinned as ignored tests (DESIGN.md names each): a new
    # one raises the budget in its own diff.
    echo "open_pinned_tests $(cat $(find tests crates/*/tests -name '*.rs' | sort) | grep -c '#\[ignore = "open:' || true)"
    # Log truncation outside in-file tests: the checkpoint alone, one
    # call for both logs, under the closed move gate.
    echo "truncate_prefix_call_sites $(for f in crates/core/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -v 'fn truncate_prefix(' | grep -c '\btruncate_prefix(' || true)"
}

over=0
while read -r name value; do
    echo "$name $value"
    budget=$([ -z "$budgets" ] || awk -v n="$name" '$1 == n { print $2 }' "$budgets")
    if [ -n "$budget" ] && [ "$value" -gt "$budget" ]; then
        echo "tracked_numbers: $name is $value, over its budget of $budget ($budgets)" >&2
        over=1
    fi
done < <(numbers)
exit $over
