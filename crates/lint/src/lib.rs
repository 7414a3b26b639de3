//! `btrim-lint`: the workspace's static-analysis pass.
//!
//! A dependency-free Rust tokenizer ([`lexer`]) feeds a rule engine
//! ([`rules`]) that segments function bodies, parses each into a
//! CFG-lite statement tree ([`cfg`]), and consults a workspace symbol
//! index ([`index`]) built in a first pass over every crate. Rules:
//!
//! * **lock-order** — nested lock acquisitions must follow the declared
//!   hierarchy in [`hierarchy`] (shared, via `include!`, with the
//!   debug-build lock-rank witness inside the vendored `parking_lot`);
//! * **snapshot-completeness** — every declared counter/histogram
//!   reaches `render_report`/`to_json` ([`snapshot`], cross-file);
//! * **wal-before-mutation** — every destructive page/RID-Map/IMRS
//!   mutation in `core` is dominated by a WAL append on all control-flow
//!   paths, per the tables in [`waldisc`] (`wal_discipline.rs`), unless
//!   it is replay/recovery context.
//!
//! Intentional exceptions carry `// lint: allow(<rule>) -- <reason>`
//! escapes; an escape without a reason, or naming a rule that does not
//! exist (`bad-escape`), is itself a finding. What the compiler can
//! check is left to it: the no-panic discipline of the engine crates is
//! clippy's (`unwrap_used`, `expect_used`, `panic`, `unreachable`,
//! denied at each crate root), and atomic orderings are fixed by each
//! field's type (`btrim_common::atomics`; clippy's `disallowed_types`
//! keeps raw std atomics out of the engine crates).
//!
//! Run it as `cargo run -p btrim-lint -- check` from the workspace
//! root; findings print as `file:line:rule: message` and a non-empty
//! set exits non-zero.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod index;
pub mod lexer;
pub mod rules;
pub mod snapshot;

/// The declared lock hierarchy (see `src/lock_hierarchy.rs`, the file
/// also consumed by `shims/parking_lot`'s lock-rank witness).
pub mod hierarchy {
    include!("lock_hierarchy.rs");
}

/// The declared WAL-first mutation discipline
/// (see `src/wal_discipline.rs`).
pub mod waldisc {
    include!("wal_discipline.rs");
}

pub use index::{build_index, WorkspaceIndex};
pub use rules::{check_file, check_file_with, Finding};

use std::io;
use std::path::{Path, PathBuf};

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable finding keys on
/// any platform).
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Read every crate's sources under `<root>/crates` as
/// `(workspace-relative path, source)` pairs, sorted by path.
fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found — run from the workspace root",
                crates.display()
            ),
        ));
    }
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            rs_files(&src, &mut files)?;
        }
    }
    let mut sources = Vec::new();
    for path in &files {
        sources.push((rel(root, path), std::fs::read_to_string(path)?));
    }
    Ok(sources)
}

/// Lint every crate's `src/` under `<root>/crates`: pass one builds the
/// workspace symbol index, pass two runs the per-file rules with it,
/// then the cross-file snapshot-completeness rule runs over the three
/// files it reads. Returns sorted findings.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let sources = workspace_sources(root)?;
    let idx = build_index(&sources);
    let mut findings = Vec::new();
    for (path, src) in &sources {
        findings.extend(check_file_with(path, src, &idx));
    }
    let file = |path: &'static str| {
        sources
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, src)| (path, src.as_str()))
    };
    if let (Some(obs), Some(stats), Some(buffer)) = (
        file("crates/obs/src/lib.rs"),
        file("crates/core/src/stats.rs"),
        file("crates/pagestore/src/buffer.rs"),
    ) {
        findings.extend(snapshot::check(obs, stats, buffer));
    }
    findings.sort();
    Ok(findings)
}
