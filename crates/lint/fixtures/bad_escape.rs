//! Fixture: bad-escape rule — malformed or unexplained escapes are
//! themselves findings. Each function's RID-Map write is a
//! wal-before-mutation finding under a `crates/core/` path. Never
//! compiled.

fn unknown_rule(&self, row: RowId, loc: RowLocation) {
    self.sh.ridmap.set(row, loc); // lint: allow(no-such-rule) -- FINDING: rule does not exist
}

fn missing_reason(&self, row: RowId, loc: RowLocation) {
    self.sh.ridmap.set(row, loc); // lint: allow(wal-before-mutation)
}

fn missing_allow(&self, row: RowId, loc: RowLocation) {
    // lint: suppress everything please
    self.sh.ridmap.set(row, loc);
}

// A rule that was deleted (no-panic moved to clippy) is an unknown
// rule too, so a stale escape cannot linger.
fn deleted_rule(&self, row: RowId, loc: RowLocation) {
    self.sh.ridmap.set(row, loc); // lint: allow(no-panic) -- FINDING: no such rule any more
}

// The same for atomics-ordering: an atomic field's type fixes its
// orderings now, so there is nothing left to escape.
fn deleted_atomics_rule(&self, row: RowId, loc: RowLocation) {
    self.sh.ridmap.set(row, loc); // lint: allow(atomics-ordering) -- FINDING: no such rule any more
}
