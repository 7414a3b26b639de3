//! Fixture corpus: every rule must fire on its known-bad fixture and
//! stay silent on the adjacent known-good code. These tests pin the
//! rule engine's behavior so a refactor that silently stops detecting
//! a class of violation fails CI instead of passing quietly.

use btrim_lint::rules::check_file;
use btrim_lint::snapshot;

fn rules_hit(findings: &[btrim_lint::rules::Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn lock_order_fires_on_inversions_only() {
    let src = include_str!("../fixtures/lock_order.rs");
    // The buffer.rs path activates the shard/frame classifications.
    let findings = check_file("crates/pagestore/src/buffer.rs", src);
    let hits = rules_hit(&findings);
    assert_eq!(
        hits.len(),
        2,
        "exactly the two inversions, none of the clean functions: {findings:?}"
    );
    assert!(hits.iter().all(|(r, _)| *r == "lock-order"));
    // The findings land on the second (inverted) acquisition of each
    // bad function: `self.inner.lock()` and `lock_shard(pool, 3)`.
    let bad_lines: Vec<u32> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("self.inner.lock()") && l.trim().starts_with("let s"))
        .map(|(i, _)| i as u32 + 1)
        .take(1)
        .chain(
            src.lines()
                .enumerate()
                .filter(|(_, l)| l.contains("lock_shard(pool"))
                .map(|(i, _)| i as u32 + 1),
        )
        .collect();
    for line in bad_lines {
        assert!(
            hits.iter().any(|(_, l)| *l == line),
            "expected a finding on line {line}: {findings:?}"
        );
    }
}

#[test]
fn lock_order_is_path_scoped() {
    // The same source under an unclassified path has no lock sites, so
    // the rule cannot fire.
    let src = include_str!("../fixtures/lock_order.rs");
    let findings = check_file("crates/obs/src/lib.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn extent_store_publish_lock_is_classified() {
    let src = include_str!("../fixtures/extent_store.rs");
    // The extent.rs path activates the publish classification.
    let findings = check_file("crates/pagestore/src/extent.rs", src);
    let hits = rules_hit(&findings);
    assert_eq!(
        hits.len(),
        1,
        "exactly the held-publish re-acquisition, none of the clean \
         functions: {findings:?}"
    );
    assert!(hits.iter().all(|(r, _)| *r == "lock-order"));
    let bad_line = src
        .lines()
        .position(|l| l.contains("other.publish.lock()") && l.contains("let b"))
        .map(|i| i as u32 + 1)
        .expect("fixture contains the bad acquisition");
    assert_eq!(hits[0].1, bad_line, "{findings:?}");
    // Under an unclassified path the same source is silent.
    let elsewhere = check_file("crates/obs/src/lib.rs", src);
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn arbiter_window_lock_is_classified() {
    let src = include_str!("../fixtures/arbiter_window.rs");
    // The arbiter.rs path activates the window classification.
    let findings = check_file("crates/core/src/arbiter.rs", src);
    let hits = rules_hit(&findings);
    assert_eq!(
        hits.len(),
        1,
        "exactly the held-window re-acquisition, none of the clean \
         functions: {findings:?}"
    );
    assert!(hits.iter().all(|(r, _)| *r == "lock-order"));
    let bad_line = src
        .lines()
        .position(|l| l.contains("other.window.lock()") && l.contains("let b"))
        .map(|i| i as u32 + 1)
        .expect("fixture contains the bad acquisition");
    assert_eq!(hits[0].1, bad_line, "{findings:?}");
    // Under an unclassified path the same source is silent.
    let elsewhere = check_file("crates/obs/src/lib.rs", src);
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn bad_escape_flags_malformed_escapes() {
    let src = include_str!("../fixtures/bad_escape.rs");
    // wal-before-mutation gates only `core`, isolating the rule.
    let findings = check_file("crates/obs/src/fixture.rs", src);
    assert_eq!(findings.len(), 5, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "bad-escape"));
    let msgs: Vec<&str> = findings.iter().map(|f| f.msg.as_str()).collect();
    assert!(msgs
        .iter()
        .any(|m| m.contains("unknown rule `no-such-rule`")));
    assert!(msgs.iter().any(|m| m.contains("no ` -- <reason>`")));
    assert!(msgs.iter().any(|m| m.contains("must be `lint: allow")));
    // An escape naming a deleted rule is stale, not silently inert.
    assert!(msgs.iter().any(|m| m.contains("unknown rule `no-panic`")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("unknown rule `atomics-ordering`")));
}

#[test]
fn malformed_escape_does_not_suppress() {
    // An invalid escape must not silence the finding it sits on.
    let src = include_str!("../fixtures/bad_escape.rs");
    let findings = check_file("crates/core/src/fixture.rs", src);
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "wal-before-mutation")
            .count(),
        5,
        "all five RID-Map writes still fire: {findings:?}"
    );
    assert_eq!(
        findings.iter().filter(|f| f.rule == "bad-escape").count(),
        5
    );
}

#[test]
fn snapshot_completeness_finds_unreachable_counters() {
    let obs = include_str!("../fixtures/snapshot_obs.rs");
    let stats = include_str!("../fixtures/snapshot_stats.rs");
    let buffer = include_str!("../fixtures/snapshot_buffer.rs");
    let findings = snapshot::check(
        ("fixtures/snapshot_obs.rs", obs),
        ("fixtures/snapshot_stats.rs", stats),
        ("fixtures/snapshot_buffer.rs", buffer),
    );
    assert!(findings.iter().all(|f| f.rule == "snapshot-completeness"));
    // Ghost missing from ALL and from name() = 2; orphan_counter = 1;
    // cold_scans + capacity_shifts = 2. The rendered arbiter_shifts and
    // shrink_debt fields stay silent.
    assert_eq!(findings.len(), 5, "{findings:?}");
    let msgs: Vec<&str> = findings.iter().map(|f| f.msg.as_str()).collect();
    assert_eq!(
        msgs.iter().filter(|m| m.contains("OpClass::Ghost")).count(),
        2
    );
    assert!(msgs.iter().any(|m| m.contains("orphan_counter")));
    assert!(msgs.iter().any(|m| m.contains("cold_scans")));
    assert!(msgs.iter().any(|m| m.contains("capacity_shifts")));
    assert!(!msgs.iter().any(|m| m.contains("arbiter_shifts")));
    assert!(!msgs.iter().any(|m| m.contains("shrink_debt")));
}

#[test]
fn wal_before_mutation_requires_append_on_all_paths() {
    let src = include_str!("../fixtures/wal_mutation.rs");
    let findings = check_file("crates/core/src/mutator.rs", src);
    assert!(
        findings.iter().all(|f| f.rule == "wal-before-mutation"),
        "no stray findings: {findings:?}"
    );
    // mutate_unlogged, log_after (append-after-mutation ordering bug),
    // log_sometimes (branch-path miss), and via_helper (the default
    // index has no appender entry for log_helper). log_first, log_both,
    // apply_undo (replay), and the escaped purge_like are silent.
    assert_eq!(findings.len(), 4, "{findings:?}");
    let bad_line = |needle: &str, skip: usize| {
        src.lines()
            .enumerate()
            .filter(|(_, l)| l.contains(needle) && !l.trim_start().starts_with("//"))
            .map(|(i, _)| i as u32 + 1)
            .nth(skip)
            .expect("fixture line")
    };
    // First un-commented ridmap.set is mutate_unlogged's.
    assert_eq!(findings[0].line, bad_line("ridmap.set", 0), "{findings:?}");
    assert_eq!(findings[1].line, bad_line("heap.delete", 0), "{findings:?}");
}

#[test]
fn wal_before_mutation_uses_the_appender_index() {
    let src = include_str!("../fixtures/wal_mutation.rs");
    let path = "crates/core/src/mutator.rs";
    // With the workspace index built over the fixture, `log_helper` is
    // recognized as an appender and `via_helper` becomes clean — the
    // three genuinely-unlogged mutations still fire.
    let sources = [(path, src)];
    let idx = btrim_lint::build_index(&sources);
    let findings = btrim_lint::check_file_with(path, src, &idx);
    let wal: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "wal-before-mutation")
        .collect();
    assert_eq!(wal.len(), 3, "{findings:?}");
    let via_line = src
        .lines()
        .position(|l| l.contains("pub fn via_helper"))
        .map(|i| i as u32 + 1)
        .expect("fixture contains via_helper");
    assert!(
        wal.iter().all(|f| f.line < via_line),
        "via_helper must be clean under the index: {findings:?}"
    );
}

#[test]
fn wal_before_mutation_is_crate_scoped() {
    // The rule only gates `core`; the same source elsewhere is silent.
    let src = include_str!("../fixtures/wal_mutation.rs");
    let findings = check_file("crates/obs/src/mutator.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn real_workspace_is_clean() {
    // The repo itself must lint clean — same invocation CI runs. Walk
    // up from the manifest dir so the test works from any cwd.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let findings = btrim_lint::check_workspace(root).unwrap();
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
