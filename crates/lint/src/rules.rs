//! The intra-procedural rule engine.
//!
//! All rules are lexical: they run over the token stream of one file,
//! with function bodies segmented by brace matching and then parsed
//! into a CFG-lite statement tree ([`crate::cfg`]). Guard scopes and
//! the WAL-first dataflow fork per branch arm and join at the merge
//! point, so a guard dropped on one path stays held on the other and a
//! mutation is only clean when *every* surviving path logged first.
//! That is still deliberately shallow — a guard smuggled through a
//! helper function is invisible here — which is why the same hierarchy
//! is also enforced dynamically by the `parking_lot` lock-rank witness
//! (see [`crate::hierarchy`]). The static rules catch mistakes at
//! review time; the witness catches whatever lexical analysis cannot
//! see. Atomic orderings need neither: they are fixed by the field's
//! type (`btrim_common::atomics`), so the compiler checks them.

use crate::cfg::{self, Node};
use crate::hierarchy;
use crate::index::WorkspaceIndex;
use crate::lexer::{lex, TokKind, Token};
use crate::waldisc;

/// Rule identifiers, as used in findings and `lint: allow(...)` escapes.
pub const RULES: &[&str] = &[
    "lock-order",
    "snapshot-completeness",
    "wal-before-mutation",
    "bad-escape",
];

/// One lint finding. Ordered and formatted stably so CI diffs and
/// `grep` pipelines over the output survive refactors of the linter.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}: {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Classification of lock acquisitions: `(path substring, receiver or
/// callee name, rank)`. A `.lock()/.read()/.write()` (or `try_`
/// variant) whose receiver's final field — or, for method-call
/// receivers like `self.shard(r)`, the method name — matches an entry
/// for the current file is an acquisition of that class. Names are
/// file-scoped so `inner` can mean a buffer shard in one crate and the
/// WAL in another.
pub const LOCK_SITES: &[(&str, &str, u16)] = &[
    (
        "crates/core/src/maintenance.rs",
        "gate",
        hierarchy::ENGINE_STATE,
    ),
    (
        "crates/core/src/arbiter.rs",
        "window",
        hierarchy::MEM_ARBITER,
    ),
    (
        "crates/pagestore/src/buffer.rs",
        "inner",
        hierarchy::BUFFER_SHARD,
    ),
    ("crates/pagestore/src/buffer.rs", "data", hierarchy::FRAME),
    ("crates/pagestore/src/buffer.rs", "io", hierarchy::FRAME),
    (
        "crates/pagestore/src/extent.rs",
        "publish",
        hierarchy::EXTENT_STORE,
    ),
    ("crates/wal/src/log.rs", "inner", hierarchy::WAL_LOG),
    ("crates/wal/src/group.rs", "state", hierarchy::GROUP_COMMIT),
];

/// Functions that *themselves* acquire and return a guard (no trailing
/// `.lock()` at the call site). Kept separate from [`LOCK_SITES`]: a
/// name here marks the call `lock_shard(…)` as the acquisition, whereas
/// a name there only classifies the receiver of a `.lock()`-family call
/// (`self.shard(row)` returns the lock, not a guard).
pub const LOCK_FNS: &[(&str, &str, u16)] = &[(
    "crates/pagestore/src/buffer.rs",
    "lock_shard",
    hierarchy::BUFFER_SHARD,
)];

fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

fn classify(path: &str, name: &str) -> Option<u16> {
    LOCK_SITES
        .iter()
        .find(|(file, n, _)| path.ends_with(file) && *n == name)
        .map(|&(_, _, rank)| rank)
}

fn classify_lock_fn(path: &str, name: &str) -> Option<u16> {
    LOCK_FNS
        .iter()
        .find(|(file, n, _)| path.ends_with(file) && *n == name)
        .map(|&(_, _, rank)| rank)
}

// ---------------------------------------------------------------------
// Escapes: `// lint: allow(<rule>) -- <reason>`
// ---------------------------------------------------------------------

struct Escape {
    rule: String,
    /// Lines the escape covers (its own line; plus the next code line
    /// when the comment stands alone).
    lines: Vec<u32>,
}

/// Parse escapes out of comment tokens. A trailing comment covers its
/// own line; a comment alone on its line covers the next line holding a
/// significant token. A missing ` -- reason` or an unknown rule name is
/// itself a finding (`bad-escape`) — escapes without a recorded "why"
/// rot into unconditional suppressions.
fn collect_escapes(path: &str, tokens: &[Token<'_>]) -> (Vec<Escape>, Vec<Finding>) {
    let mut escapes = Vec::new();
    let mut findings = Vec::new();
    let mut line_has_code = std::collections::HashSet::new();
    for t in tokens {
        if t.is_significant() {
            line_has_code.insert(t.line);
        }
    }
    for (i, t) in tokens.iter().enumerate() {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        // Doc comments (`///`, `//!`, `/** */`, `/*! */`) never carry
        // escapes — they are prose, and this linter's own docs describe
        // the escape syntax.
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        // The escape must lead the comment (`// lint: allow(…) -- …`);
        // a `lint:` buried mid-sentence (or inside a path like
        // `btrim_lint::hierarchy`) is prose, not an escape.
        let stripped = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start();
        let Some(body) = stripped.strip_prefix("lint:") else {
            continue;
        };
        let Some(open) = body.find("allow(") else {
            findings.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: "bad-escape",
                msg: "lint escape must be `lint: allow(<rule>) -- <reason>`".into(),
            });
            continue;
        };
        let after = &body[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            findings.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: "bad-escape",
                msg: "unterminated `lint: allow(` escape".into(),
            });
            continue;
        };
        let rule = after[..close].trim().to_string();
        if !RULES.contains(&rule.as_str()) || rule == "bad-escape" {
            findings.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: "bad-escape",
                msg: format!("unknown rule `{rule}` in lint escape"),
            });
            continue;
        }
        let reason = after[close + 1..]
            .trim_start()
            .strip_prefix("--")
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            findings.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: "bad-escape",
                msg: format!("lint escape for `{rule}` has no ` -- <reason>`"),
            });
            continue;
        }
        let mut lines = vec![t.line];
        if !line_has_code.contains(&t.line) {
            // Standalone comment: cover the next statement — every line
            // from the next significant token up to its terminating `;`
            // or opening `{` (rustfmt wraps method chains, so the access
            // the escape vouches for often sits on a continuation line).
            for n in tokens[i + 1..].iter().filter(|n| n.is_significant()) {
                lines.push(n.line);
                if n.text == ";" || n.text == "{" {
                    break;
                }
            }
        }
        escapes.push(Escape { rule, lines });
    }
    (escapes, findings)
}

/// Lines on which a valid escape for `rule` applies in `src`. Used by
/// cross-file rules whose findings are produced outside [`check_file`].
pub fn escaped_lines(src: &str, rule: &str) -> std::collections::BTreeSet<u32> {
    let tokens = lex(src);
    let (escapes, _) = collect_escapes("", &tokens);
    escapes
        .iter()
        .filter(|e| e.rule == rule)
        .flat_map(|e| e.lines.iter().copied())
        .collect()
}

// ---------------------------------------------------------------------
// Function segmentation (with test/bench exclusion)
// ---------------------------------------------------------------------

/// A function body: the significant tokens between its braces, plus the
/// function's name (used by the wal-before-mutation replay classifier
/// and the workspace appender index).
pub struct FnBody<'a> {
    pub name: Option<&'a str>,
    pub tokens: Vec<Token<'a>>,
}

/// The non-test function bodies of a file's significant tokens, in
/// source order, skipping anything under a `#[test]`/`#[bench]`
/// function or a `#[cfg(test)]` (or similar test-mentioning attribute)
/// module.
pub fn segment<'a>(sig: &[Token<'a>]) -> Vec<FnBody<'a>> {
    let mut fns = Vec::new();
    let mut i = 0;
    let mut test_attr = false;
    while i < sig.len() {
        let t = &sig[i];
        match t.text {
            "#" => {
                // Attribute: scan the [...] group, noting test markers.
                let mut j = i + 1;
                if j < sig.len() && sig[j].text == "[" {
                    let mut depth = 0usize;
                    while j < sig.len() {
                        match sig[j].text {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            "test" | "bench" => test_attr = true,
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j + 1;
                    continue;
                }
            }
            "mod" if test_attr => {
                // `#[cfg(test)] mod …` — skip the whole block.
                test_attr = false;
                i = skip_past_block(sig, i);
                continue;
            }
            "fn" => {
                let is_test = test_attr;
                test_attr = false;
                let name = sig
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text);
                // Find the body's opening brace; a `;` first means a
                // bodiless declaration (trait method, extern).
                let mut j = i + 1;
                while j < sig.len() && sig[j].text != "{" && sig[j].text != ";" {
                    j += 1;
                }
                if j >= sig.len() || sig[j].text == ";" {
                    i = j + 1;
                    continue;
                }
                let (body_end, body) = brace_block(sig, j);
                if !is_test {
                    fns.push(FnBody { name, tokens: body });
                }
                i = body_end;
                continue;
            }
            "struct" | "enum" | "trait" | "impl" | "mod" | "let" | "static" | "const" => {
                test_attr = false;
            }
            _ => {}
        }
        i += 1;
    }
    fns
}

/// From an item keyword at `i`, advance past the next balanced `{…}`
/// block (or past a terminating `;`).
fn skip_past_block(sig: &[Token<'_>], i: usize) -> usize {
    let mut j = i;
    while j < sig.len() && sig[j].text != "{" {
        if sig[j].text == ";" {
            return j + 1;
        }
        j += 1;
    }
    if j >= sig.len() {
        return sig.len();
    }
    brace_block(sig, j).0
}

/// From an opening `{` at `open`, return (index past the matching `}`,
/// the tokens strictly inside).
fn brace_block<'a>(sig: &[Token<'a>], open: usize) -> (usize, Vec<Token<'a>>) {
    let mut depth = 0usize;
    let mut j = open;
    let mut body = Vec::new();
    while j < sig.len() {
        match sig[j].text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, body);
                }
            }
            _ => {}
        }
        if j > open {
            body.push(sig[j]);
        }
        j += 1;
    }
    (sig.len(), body)
}

// ---------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------

/// The receiver name to classify for a `.method()` call at `i`: the
/// field before the dot, the collection behind an index expression
/// (`self.slots[i].load(…)` → `slots`), or — when the receiver is
/// itself a call like `self.shard(row)` — the called method's name.
fn receiver_name<'a>(body: &[Token<'a>], i: usize) -> Option<&'a str> {
    // body[i] is the method ident; body[i-1] must be `.`.
    if i < 2 || body[i - 1].text != "." {
        return None;
    }
    let mut j = i - 2;
    if body[j].text == "]" {
        // Index expression: walk back over `[…]` to the collection.
        let mut depth = 0i32;
        loop {
            match body[j].text {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    let prev = &body[j];
    if prev.kind == TokKind::Ident {
        return Some(prev.text);
    }
    if prev.text == ")" {
        // Walk back over the argument list to the method name.
        let mut depth = 0i32;
        loop {
            match body[j].text {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j >= 1 && body[j - 1].kind == TokKind::Ident {
            return Some(body[j - 1].text);
        }
    }
    None
}

// ---------------------------------------------------------------------
// Guard tracking over the CFG tree (lock-order)
// ---------------------------------------------------------------------

/// A lock guard in scope on some path.
#[derive(Clone)]
struct Guard {
    name: String,
    rank: u16,
    /// Tree depth at the binding; the guard dies when the enclosing
    /// scope/arm closes.
    depth: i32,
}

/// Path state for the guard walk.
#[derive(Clone, Default)]
struct GuardState {
    held: Vec<Guard>,
    /// The binding target of the current statement, if any (`let g = …`
    /// or a `g = …` re-acquisition after an explicit `drop(g)`).
    binding: Option<String>,
    /// A `return`/`break`/`continue` was seen; the path diverges once
    /// its expression finishes (at `;` or scope/arm end).
    pending: bool,
    /// This path has exited the function/loop; nothing after runs.
    diverged: bool,
}

impl GuardState {
    fn settle(&mut self) {
        if self.pending {
            self.pending = false;
            self.diverged = true;
        }
    }
}

fn walk_guards(
    path: &str,
    nodes: &[Node<'_>],
    st: &mut GuardState,
    depth: i32,
    findings: &mut Vec<Finding>,
) {
    for n in nodes {
        if st.diverged {
            return;
        }
        match n {
            Node::Run(toks) => scan_guard_run(path, toks, st, depth, findings),
            Node::Scope { nodes, diverging } => {
                if *diverging {
                    // `let … else { … }`: the block only runs on the
                    // refuted path, which must diverge — walk a copy
                    // (to check its contents) and discard it.
                    let mut sub = st.clone();
                    sub.pending = false;
                    walk_guards(path, nodes, &mut sub, depth + 1, findings);
                } else {
                    walk_guards(path, nodes, st, depth + 1, findings);
                    st.held.retain(|g| g.depth <= depth);
                    st.settle();
                    st.binding = None;
                }
            }
            Node::Branch { arms, exhaustive } => {
                let base = st.clone();
                let mut merged: Vec<Guard> = Vec::new();
                let mut any_live = false;
                if !*exhaustive {
                    // Fall-through path: the branch did not run.
                    any_live = true;
                    merged = base.held.clone();
                }
                for arm in arms {
                    let mut sub = base.clone();
                    sub.pending = false;
                    walk_guards(path, arm, &mut sub, depth + 1, findings);
                    sub.held.retain(|g| g.depth <= depth);
                    sub.settle();
                    if !sub.diverged {
                        any_live = true;
                        for g in sub.held {
                            if !merged.iter().any(|m| m.name == g.name && m.rank == g.rank) {
                                merged.push(g);
                            }
                        }
                    }
                }
                st.held = merged;
                st.binding = None;
                st.pending = base.pending;
                st.diverged = !any_live;
            }
            Node::Loop(body) => {
                // Zero-or-more iterations: check the body on a copy of
                // the incoming state, then keep the incoming state
                // (guards acquired inside die at the body's scope; a
                // drop() of an outer guard on some iteration must not
                // un-hold it, so union-with-incoming == incoming).
                let mut sub = st.clone();
                sub.pending = false;
                walk_guards(path, body, &mut sub, depth + 1, findings);
                st.binding = None;
            }
        }
    }
}

/// Straight-line guard tracking inside one [`Node::Run`].
fn scan_guard_run(
    path: &str,
    toks: &[Token<'_>],
    st: &mut GuardState,
    depth: i32,
    findings: &mut Vec<Finding>,
) {
    let mut stmt_start = true;
    for i in 0..toks.len() {
        if st.diverged {
            return;
        }
        let t = &toks[i];
        let next = toks.get(i + 1).map(|n| n.text);
        match t.text {
            ";" => {
                st.settle();
                stmt_start = true;
                st.binding = None;
                continue;
            }
            "return" | "break" | "continue" => {
                // The trailing expression (if any) still executes; the
                // path diverges when the statement ends.
                st.pending = true;
                stmt_start = false;
                continue;
            }
            _ => {}
        }

        if stmt_start {
            if t.text == "let" {
                st.binding = toks[i + 1..]
                    .iter()
                    .take_while(|n| n.text != "=" && n.text != ";")
                    .find(|n| {
                        n.kind == TokKind::Ident && !matches!(n.text, "mut" | "Some" | "Ok" | "Err")
                    })
                    .map(|n| n.text.to_string());
            } else if t.kind == TokKind::Ident && next == Some("=") {
                // Possible re-acquisition: `st = self.state.lock()`.
                st.binding = Some(t.text.to_string());
            }
        }
        // `if let Some(g) = x.try_lock()` also binds a guard.
        if t.text == "if" && next == Some("let") {
            stmt_start = true;
            continue;
        }
        stmt_start = false;

        // drop(guard) ends a guard's scope early.
        if t.text == "drop" && next == Some("(") {
            if let Some(name) = toks.get(i + 2) {
                if toks.get(i + 3).map(|n| n.text) == Some(")") {
                    if let Some(pos) = st.held.iter().rposition(|g| g.name == name.text) {
                        st.held.remove(pos);
                    }
                }
            }
            continue;
        }

        if t.kind != TokKind::Ident || next != Some("(") {
            continue;
        }

        // Lock acquisitions: `.lock()` family on classified receivers,
        // plus guard-returning callables like `lock_shard(…)`. `try_*`
        // is not one: it cannot block, so it cannot deadlock at the
        // acquisition itself, and lexically the call often sits in a
        // fallback (`match x.try_read() { None => x.read() }`) where
        // nothing is held when it fails. Guards it *does* produce are
        // invisible to this pass; the runtime lock-rank witness tracks
        // them instead. The binding is left in place so a blocking retry
        // in the fallback arm claims it.
        let rank = if matches!(t.text, "lock" | "read" | "write") {
            receiver_name(toks, i).and_then(|r| classify(path, r))
        } else {
            classify_lock_fn(path, t.text)
        };
        let Some(rank) = rank else {
            continue;
        };
        for g in &st.held {
            if g.rank >= rank {
                findings.push(Finding {
                    file: path.to_string(),
                    line: t.line,
                    rule: "lock-order",
                    msg: format!(
                        "acquires {} (rank {rank}) while holding {} (rank {}); \
                         declared order: {}",
                        hierarchy::rank_name(rank),
                        hierarchy::rank_name(g.rank),
                        g.rank,
                        order_string(),
                    ),
                });
            }
        }
        if let Some(name) = st.binding.take() {
            st.held.push(Guard { name, rank, depth });
        }
    }
}

fn order_string() -> String {
    hierarchy::LOCK_RANKS
        .iter()
        .map(|(n, _)| *n)
        .collect::<Vec<_>>()
        .join(" < ")
}

// ---------------------------------------------------------------------
// wal-before-mutation: WAL-first dataflow over the CFG tree
// ---------------------------------------------------------------------

/// Path state for the WAL-first dataflow: has this path definitely
/// appended to the log yet?
#[derive(Clone, Copy, Default)]
struct WalState {
    appended: bool,
    pending: bool,
    diverged: bool,
}

impl WalState {
    fn settle(&mut self) {
        if self.pending {
            self.pending = false;
            self.diverged = true;
        }
    }
}

fn walk_wal(
    path: &str,
    index: &WorkspaceIndex,
    nodes: &[Node<'_>],
    st: &mut WalState,
    findings: &mut Vec<Finding>,
) {
    for n in nodes {
        if st.diverged {
            return;
        }
        match n {
            Node::Run(toks) => {
                for i in 0..toks.len() {
                    if st.diverged {
                        break;
                    }
                    let t = &toks[i];
                    match t.text {
                        ";" => {
                            st.settle();
                            continue;
                        }
                        "return" | "break" | "continue" => {
                            st.pending = true;
                            continue;
                        }
                        _ => {}
                    }
                    if t.kind != TokKind::Ident || toks.get(i + 1).map(|n| n.text) != Some("(") {
                        continue;
                    }
                    if index.is_appender(t.text) {
                        st.appended = true;
                        continue;
                    }
                    let hit = waldisc::MUTATION_METHODS
                        .iter()
                        .find(|(recv, m, _)| *m == t.text && receiver_name(toks, i) == Some(*recv));
                    if let Some(&(recv, m, label)) = hit {
                        if !st.appended {
                            findings.push(Finding {
                                file: path.to_string(),
                                line: t.line,
                                rule: "wal-before-mutation",
                                msg: format!(
                                    "`{recv}.{m}` ({label}) is not dominated by a WAL append \
                                     on this path — log first, mutate second \
                                     (see wal_discipline.rs)"
                                ),
                            });
                        }
                    }
                }
            }
            Node::Scope { nodes, diverging } => {
                if *diverging {
                    let mut sub = *st;
                    sub.pending = false;
                    walk_wal(path, index, nodes, &mut sub, findings);
                } else {
                    walk_wal(path, index, nodes, st, findings);
                    st.settle();
                }
            }
            Node::Branch { arms, exhaustive } => {
                let base = *st;
                let mut all_appended = true;
                let mut any_live = false;
                if !*exhaustive {
                    // Fall-through path: the branch may not run at all.
                    any_live = true;
                    all_appended &= base.appended;
                }
                for arm in arms {
                    let mut sub = base;
                    sub.pending = false;
                    walk_wal(path, index, arm, &mut sub, findings);
                    sub.settle();
                    if !sub.diverged {
                        any_live = true;
                        all_appended &= sub.appended;
                    }
                }
                st.appended = any_live && all_appended;
                st.pending = base.pending;
                st.diverged = !any_live;
            }
            Node::Loop(body) => {
                // Zero-iteration path: an append inside the loop proves
                // nothing for the code after it. Mutations inside are
                // checked against the loop-entry state.
                let mut sub = *st;
                sub.pending = false;
                walk_wal(path, index, body, &mut sub, findings);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Lint one file's source with cross-file context. `path` is the
/// workspace-relative path (it selects which crates' rules apply and
/// how receivers classify); `index` supplies the workspace appender
/// set for one-level call-graph propagation in `wal-before-mutation`.
/// Returns findings with escapes already applied.
pub fn check_file_with(path: &str, src: &str, index: &WorkspaceIndex) -> Vec<Finding> {
    let tokens = lex(src);
    let (escapes, mut findings) = collect_escapes(path, &tokens);
    let sig: Vec<Token<'_>> = tokens
        .iter()
        .filter(|t| t.is_significant())
        .copied()
        .collect();

    let krate = crate_of(path).unwrap_or("");
    let wal_applies = krate == "core" && !waldisc::REPLAY_FILES.iter().any(|f| path.ends_with(f));

    for f in &segment(&sig) {
        let tree = cfg::build(&f.tokens);
        let mut gst = GuardState::default();
        walk_guards(path, &tree, &mut gst, 0, &mut findings);
        if wal_applies && !f.name.is_some_and(|n| waldisc::REPLAY_FNS.contains(&n)) {
            let mut wst = WalState::default();
            walk_wal(path, index, &tree, &mut wst, &mut findings);
        }
    }

    findings.retain(|f| {
        f.rule == "bad-escape"
            || !escapes
                .iter()
                .any(|e| e.rule == f.rule && e.lines.contains(&f.line))
    });
    findings.sort();
    findings.dedup();
    findings
}

/// Lint one file without workspace context (fixture tests, single-file
/// callers). `wal-before-mutation` still recognises the seed append
/// functions; only helper-propagated appends need the index.
pub fn check_file(path: &str, src: &str) -> Vec<Finding> {
    check_file_with(path, src, &WorkspaceIndex::default())
}
