//! Debug-build witness for the declared atomics discipline.
//!
//! [`discipline`] is the SAME table the static `atomics-ordering` lint
//! reads (`crates/lint/src/atomics_discipline.rs`, pulled in by
//! `include!` exactly like the lock hierarchy shared with the
//! `parking_lot` lock-rank witness). The lint proves every *lexical*
//! access site uses an ordering at least as strong as the field's
//! declared protocol; [`witness`] re-asserts the same judgment at run
//! time on the hot helpers the engine routes publication through, so a
//! refactor that weakens an ordering behind a helper the lint cannot
//! see still explodes in any debug-build test.
//!
//! Release builds compile the calls to nothing: the check sits behind
//! `cfg!(debug_assertions)` and every input is a constant, so the
//! optimizer deletes the whole call.

use std::sync::atomic::Ordering;

/// The shared discipline table (see module docs).
pub mod discipline {
    include!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../lint/src/atomics_discipline.rs"
    ));
}

/// Access kind being witnessed. A compare-exchange witnesses its
/// success ordering as `Rmw` and its failure ordering as `Load`.
#[derive(Clone, Copy, Debug)]
pub enum AtomicOp {
    Load,
    Store,
    Rmw,
}

fn ord_code(ord: Ordering) -> u8 {
    match ord {
        Ordering::Relaxed => discipline::O_RELAXED,
        Ordering::Acquire => discipline::O_ACQUIRE,
        Ordering::Release => discipline::O_RELEASE,
        Ordering::AcqRel => discipline::O_ACQREL,
        _ => discipline::O_SEQCST,
    }
}

fn op_code(op: AtomicOp) -> u8 {
    match op {
        AtomicOp::Load => discipline::OP_LOAD,
        AtomicOp::Store => discipline::OP_STORE,
        AtomicOp::Rmw => discipline::OP_RMW,
    }
}

/// Assert (debug builds only) that an access of kind `op` with
/// ordering `ord` satisfies the protocol declared for `(file, field)`.
/// An undeclared field is itself a violation — the table is supposed
/// to be complete, and the lint's completeness pass keeps it so.
#[inline(always)]
#[track_caller]
pub fn witness(file: &str, field: &str, op: AtomicOp, ord: Ordering) {
    if cfg!(debug_assertions) {
        let Some(proto) = discipline::declared_protocol(file, field) else {
            panic!("atomics witness: {file}::{field} is not declared in atomics_discipline.rs");
        };
        assert!(
            discipline::ordering_ok(proto, op_code(op), ord_code(ord)),
            "atomics witness: {file}::{field} is declared {} but was accessed \
             ({op:?}) with {ord:?}",
            discipline::protocol_name(proto),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::discipline::*;
    use super::*;

    #[test]
    fn table_is_well_formed() {
        for (i, (file, field, proto, note)) in ATOMIC_FIELDS.iter().enumerate() {
            assert!(
                matches!(*proto, P_RELAXED | P_ACQREL | P_SEQCST),
                "{file}::{field}: bad protocol {proto}"
            );
            assert!(!note.is_empty(), "{file}::{field}: empty note");
            assert!(
                file.starts_with("crates/") && file.ends_with(".rs"),
                "{file}: not a workspace-relative source path"
            );
            for (of, on, _, _) in &ATOMIC_FIELDS[..i] {
                assert!(
                    !(of == file && on == field),
                    "duplicate entry {file}::{field}"
                );
            }
        }
    }

    #[test]
    fn ordering_ok_truth_table() {
        // Relaxed protocol accepts anything.
        for op in [OP_LOAD, OP_STORE, OP_RMW] {
            for ord in [O_RELAXED, O_ACQUIRE, O_RELEASE, O_ACQREL, O_SEQCST] {
                assert!(ordering_ok(P_RELAXED, op, ord));
            }
        }
        // Acq-rel: loads need Acquire+, stores Release+, RMWs AcqRel+.
        assert!(!ordering_ok(P_ACQREL, OP_LOAD, O_RELAXED));
        assert!(ordering_ok(P_ACQREL, OP_LOAD, O_ACQUIRE));
        assert!(!ordering_ok(P_ACQREL, OP_STORE, O_RELAXED));
        assert!(!ordering_ok(P_ACQREL, OP_STORE, O_ACQUIRE));
        assert!(ordering_ok(P_ACQREL, OP_STORE, O_RELEASE));
        assert!(!ordering_ok(P_ACQREL, OP_RMW, O_RELEASE));
        assert!(ordering_ok(P_ACQREL, OP_RMW, O_ACQREL));
        assert!(ordering_ok(P_ACQREL, OP_RMW, O_SEQCST));
        // Seq-cst admits only SeqCst.
        for op in [OP_LOAD, OP_STORE, OP_RMW] {
            for ord in [O_RELAXED, O_ACQUIRE, O_RELEASE, O_ACQREL] {
                assert!(!ordering_ok(P_SEQCST, op, ord));
            }
            assert!(ordering_ok(P_SEQCST, op, O_SEQCST));
        }
    }

    #[test]
    fn witness_accepts_declared_protocol() {
        witness(
            "crates/common/src/clock.rs",
            "published",
            AtomicOp::Load,
            Ordering::Acquire,
        );
        witness(
            "crates/common/src/hist.rs",
            "count",
            AtomicOp::Rmw,
            Ordering::Relaxed,
        );
    }

    // The witness checks only in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "declared acq-rel")]
    fn witness_rejects_weak_publish() {
        witness(
            "crates/common/src/clock.rs",
            "published",
            AtomicOp::Store,
            Ordering::Relaxed,
        );
    }

    // The witness checks only in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not declared")]
    fn witness_rejects_undeclared_field() {
        witness(
            "crates/common/src/clock.rs",
            "no_such_field",
            AtomicOp::Load,
            Ordering::SeqCst,
        );
    }
}
