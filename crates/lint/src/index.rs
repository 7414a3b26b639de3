//! Workspace symbol index.
//!
//! One cheap pass over every file before the rule pass, collecting the
//! facts that cross file boundaries:
//!
//! * **appender functions** — functions whose bodies call one of the
//!   seed log-append functions (`LogSink::append`/`append_batch`, the
//!   engine's `append_*` funnels). The `wal-before-mutation` dataflow
//!   treats a call to any of them as an append: one level of
//!   call-graph propagation, enough for the `log_records_then_mutate`
//!   helper idiom without whole-program analysis.
//!
//! The index is deliberately name-based (no type resolution): two
//! functions sharing a name alias into one entry. That over-approximates
//! appends — a documented blind spot traded for a dependency-free
//! linter that runs in milliseconds.

use std::collections::BTreeSet;

use crate::lexer::{lex, Token};
use crate::rules::segment;
use crate::waldisc;

/// Cross-file facts consumed by [`crate::rules::check_file_with`].
#[derive(Clone, Debug, Default)]
pub struct WorkspaceIndex {
    /// Function names whose bodies (one level deep) append to a log.
    pub appenders: BTreeSet<String>,
}

impl WorkspaceIndex {
    /// Is a call to `name` an append (seed table or propagated)?
    pub fn is_appender(&self, name: &str) -> bool {
        waldisc::APPEND_FNS.contains(&name) || self.appenders.contains(name)
    }
}

/// Build the index over `(workspace-relative path, source)` pairs.
pub fn build_index<P: AsRef<str>, S: AsRef<str>>(files: &[(P, S)]) -> WorkspaceIndex {
    let mut idx = WorkspaceIndex::default();
    for (_, src) in files {
        let tokens = lex(src.as_ref());
        let sig: Vec<Token<'_>> = tokens
            .iter()
            .filter(|t| t.is_significant())
            .copied()
            .collect();
        for f in segment(&sig) {
            let Some(name) = f.name else { continue };
            if waldisc::APPEND_FNS.contains(&name) {
                continue; // seeds stand on their own
            }
            let calls_append = f.tokens.iter().enumerate().any(|(i, t)| {
                waldisc::APPEND_FNS.contains(&t.text)
                    && f.tokens.get(i + 1).map(|n| n.text) == Some("(")
            });
            if calls_append {
                idx.appenders.insert(name.to_string());
            }
        }
    }
    idx
}
