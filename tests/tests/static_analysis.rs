//! Tier-1 enforcement of the protocol invariants: `cargo test` fails if
//! any workspace source violates a dmw-lint rule (L2, L6, L8–L11) or a
//! clippy lint at the level set in source (L1, L3, L4, L5, L7; see
//! `docs/static_analysis.md`), so a violation cannot merge even when the
//! `scripts/check.sh` gate is skipped. Alongside the clean-workspace
//! assertions, this suite pins the *other* direction: an injected
//! violation per flow-sensitive family (L9, L10, L11) must fail, and the
//! committed JSON report must match the workspace byte for byte.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ lives one level below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

#[test]
fn workspace_has_no_lint_violations() {
    let findings =
        dmw_lint::lint_workspace(&workspace_root()).expect("workspace sources are readable");
    assert!(
        findings.is_empty(),
        "dmw-lint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_passes_clippy_at_the_levels_set_in_source() {
    // `-A warnings` keeps the advisory `warn` tier quiet; every `deny`
    // and `forbid` set in source or in `[workspace.lints]` still fails,
    // and so does an `#[expect]` waiver that no longer suppresses
    // anything. A separate target directory keeps this nested build from
    // waiting on the lock of the one running the tests.
    let root = workspace_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy-tier1"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--workspace",
            "--all-targets",
        ])
        .args([
            "--",
            "-A",
            "warnings",
            "-D",
            "unfulfilled_lint_expectations",
        ])
        .output()
        .expect("cargo clippy runs (tier 1 needs the clippy component)");
    assert!(
        out.status.success(),
        "clippy rejected the workspace:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn an_injected_l9_violation_fails() {
    let findings = dmw_lint::lint_source(
        "crates/core/src/injected.rs",
        "fn leak(bid: u64, task: usize) -> Body { \
         Body::Disclose { task, f_values: vec![bid] } }",
    );
    assert!(
        findings.iter().any(|f| f.rule == "L9"),
        "a raw bid reaching a sink constructor must be denied: {findings:?}"
    );
}

#[test]
fn an_injected_l10_violation_fails() {
    let findings = dmw_lint::lint_source(
        "crates/core/src/injected.rs",
        "fn f(m: &HashMap<u64, u64>) -> u64 { m.values().sum() }",
    );
    assert!(
        findings.iter().any(|f| f.rule == "L10"),
        "HashMap iteration in a deterministic crate must be denied: {findings:?}"
    );
}

#[test]
fn a_transition_added_without_a_spec_update_fails() {
    let root = workspace_root();
    let spec = fs::read_to_string(root.join("docs/phase_graph.toml")).expect("spec readable");
    let phases =
        fs::read_to_string(root.join("crates/core/src/phases/mod.rs")).expect("phases readable");
    // Drop a declared edge from the spec: the (unchanged) code edge is
    // now an undeclared transition — exactly what adding a transition
    // without a spec edit looks like from the spec's point of view.
    let drifted = spec.replace("\"SecondPrice -> Claimed\",", "");
    assert_ne!(drifted, spec, "the edge under test exists in the spec");
    let out = dmw_lint::phase_graph::check_sources(
        "docs/phase_graph.toml",
        Some(&drifted),
        &[("crates/core/src/phases/mod.rs".to_owned(), phases)],
    );
    assert!(
        out.iter()
            .any(|f| f.finding.rule == "L11"
                && f.finding.message.contains("undeclared transition")),
        "{out:?}"
    );
}

#[test]
fn committed_lint_report_matches_the_workspace() {
    let root = workspace_root();
    let findings = dmw_lint::lint_workspace(&root).expect("workspace sources are readable");
    let fresh = dmw_lint::report::to_json(&findings);
    let committed =
        fs::read_to_string(root.join("docs/lint_report.json")).expect("committed report exists");
    assert_eq!(
        fresh, committed,
        "docs/lint_report.json is stale; regenerate with \
         `cargo run -p dmw-lint -- --format json --out docs/lint_report.json`"
    );
}
