//! The pieces of `bench_all`, the repository's one benchmark; the
//! binary in `main.rs` is the command line over them.
//!
//! * [`spec`] — every workload and metric name, unit, bound, source.
//! * [`workload`] — one run: set-up, timed section, reads, checks,
//!   crash → recover → verify.
//! * [`devices`] — `SpanLog` / `SpanDisk`: count, time, crash.
//! * [`trace`] — the in-memory span log and its reduction.
//! * [`checks`] — TPC-C consistency, one-home-per-row, scan oracle.
//! * [`probes`] — each layer crate's public functions, timed directly.
//! * [`metrics`] — from a run's raw data to the named numbers.
//! * [`stats`], [`json`] — order statistics; hand-rolled JSON.

#![forbid(unsafe_code)]

pub mod checks;
pub mod devices;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
