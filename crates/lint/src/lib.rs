//! `dmw-lint` — workspace-wide protocol-invariant static analysis.
//!
//! The DMW protocol's safety rests on a handful of code-level invariants.
//! Most are compiler-checked: clippy lints with their levels set in
//! source cover panic paths (L1), wildcard arms (L3), ambient entropy
//! (L4), truncating casts (L5), the wall clock (L7) and hash-order
//! iteration (L10); the secret types of `dmw-crypto` keep raw bids and
//! secret polynomials off the wire (L9). Those rule numbers are unused
//! here. This crate checks the four that neither the type system nor
//! clippy can express:
//!
//! * **lexical** — a small Rust lexer ([`lexer`]) and three token-pattern
//!   rules ([`rules`]): no raw machine arithmetic on field residues (L2),
//!   no round-number dispatch in the phase modules (L6) and no
//!   unbudgeted retry loops in the reliability sublayer (L8), each
//!   scoped to the modules where its pattern is unambiguous;
//! * **phase graph** — L11 ([`phase_graph`]): the `Phase` transitions
//!   under `crates/core/src/phases/` must match the spec
//!   `docs/phase_graph.toml`.
//!
//! No rule is waivable: a finding is fixed, or for L11 the spec is
//! edited. Findings render as human diagnostics or as a stable JSON
//! report ([`report`]). See `docs/static_analysis.md` for the rule
//! catalogue and rationale.
//!
//! Entry points: [`lint_source`] for one file (used by the fixture
//! tests), [`lint_workspace`] for the tree walk plus L11 (used by the
//! CLI and the tier-1 integration test).

pub mod lexer;
pub mod phase_graph;
pub mod report;
pub mod rules;
pub mod toml_lite;

#[cfg(test)]
#[path = "../tests/support/clippy.rs"]
mod clippy_probe;

pub use rules::Finding;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned: build output, vendored stubs (external
/// idiom, not protocol code) and the lint's own deliberately-dirty
/// fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// The L11 spec, workspace-relative.
const PHASE_GRAPH_SPEC: &str = "docs/phase_graph.toml";

/// Where the `Phase` state machine lives, workspace-relative.
const PHASES_DIR: &str = "crates/core/src/phases/";

/// A rule pass: tokens in, findings out.
type Rule = fn(&[lexer::Token]) -> Vec<Finding>;

/// Which lexical rules police `path` (workspace-relative, `/`-separated).
fn rules_for_path(path: &str) -> Vec<Rule> {
    let mut out: Vec<Rule> = Vec::new();
    // The typed phase state machine: the protocol equations moved here
    // from agent.rs, and its round-independence is what L6 protects.
    let in_phases = path.starts_with(PHASES_DIR);
    let agent = path == "crates/core/src/agent.rs";

    // codec.rs is excluded from L2: byte/bit packing legitimately uses
    // `%` and shifts on lengths, never on field values.
    if path.starts_with("crates/crypto/src/")
        || in_phases
        || agent
        || ["crates/core/src/payment.rs", "crates/core/src/runner.rs"].contains(&path)
    {
        out.push(rules::l2);
    }
    // The scheduler (runner.rs) is the only module allowed to reason
    // about round numbers; the agent and its phases must not.
    if in_phases || agent {
        out.push(rules::l6);
    }
    // The modules that may legitimately drive resends: the agent, its
    // phases, and the reliable-delivery sublayer itself. Every retry
    // loop there must be visibly bounded by a budget (L8).
    if in_phases || agent || path == "crates/core/src/reliable.rs" {
        out.push(rules::l8);
    }
    out
}

/// Lints one file's source as if it lived at `path` (workspace-relative)
/// with the lexical rules scoped to that path. Returns the findings
/// sorted by line.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let tokens = rules::strip_test_regions(&lexer::lex(source));
    let mut out: Vec<Finding> = rules_for_path(path)
        .into_iter()
        .flat_map(|rule| rule(&tokens))
        .collect();
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// A finding located in a specific file.
#[derive(Debug, Clone)]
pub struct FileFinding {
    /// Workspace-relative path.
    pub path: String,
    /// The finding itself.
    pub finding: Finding,
}

impl std::fmt::Display for FileFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.finding.line, self.finding.rule, self.finding.message
        )
    }
}

/// Lints every `.rs` file under `root` (skipping `SKIP_DIRS`), plus the
/// L11 phase-graph conformance check against `docs/phase_graph.toml`.
/// Findings are sorted by path, then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<FileFinding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    let mut phase_files = Vec::new();
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))?;
        let path = rel
            .to_str()
            .map(|s| s.replace('\\', "/"))
            .unwrap_or_default();
        for finding in lint_source(&path, &source) {
            out.push(FileFinding {
                path: path.clone(),
                finding,
            });
        }
        if path.starts_with(PHASES_DIR) {
            phase_files.push((path, source));
        }
    }

    let spec_src = fs::read_to_string(root.join(PHASE_GRAPH_SPEC)).ok();
    out.extend(phase_graph::check_sources(
        PHASE_GRAPH_SPEC,
        spec_src.as_deref(),
        &phase_files,
    ));

    out.sort_by(|a, b| {
        (&a.path, a.finding.line, a.finding.rule).cmp(&(&b.path, b.finding.line, b.finding.rule))
    });
    Ok(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clippy_probe::{levels_in_source, sorted, L1, L3, L7};

    #[test]
    fn scoping_selects_the_documented_rule_sets() {
        // L2 fires in agent.rs but not codec.rs or modmath for raw `%`.
        let modsrc = "fn f(a: u64, b: u64) -> u64 { a % b }";
        assert!(lint_source("crates/modmath/src/field.rs", modsrc).is_empty());
        assert_eq!(lint_source("crates/core/src/agent.rs", modsrc).len(), 1);
        assert!(lint_source("crates/core/src/codec.rs", modsrc).is_empty());

        // L3 is clippy's, `forbid` on the codec's `pub mod` line but not
        // on the message vocabulary's; L7 is `forbid` at the crate root.
        let core = include_str!("../../core/src/lib.rs");
        assert_eq!(levels_in_source(core, Some("codec")), sorted(&[L1, L3]));
        let messages = levels_in_source(core, Some("messages"));
        assert!(L3.iter().all(|l| !messages.iter().any(|m| m == l)));
        assert_eq!(levels_in_source(core, None), sorted(&[L7]));

        // L6 fires in agent.rs but not in the scheduler.
        let rounds = "fn g(round: u64) -> u8 { match round { 0 => 1, n => 2 } }";
        assert_eq!(lint_source("crates/core/src/agent.rs", rounds).len(), 1);
        assert!(lint_source("crates/core/src/runner.rs", rounds).is_empty());
    }

    #[test]
    fn l4_applies_everywhere() {
        // L4's `SystemTime` ban and L10's hash-collection ban are
        // clippy's `disallowed_types`: denied in every workspace member
        // through `[workspace.lints]`, and listed in both clippy.toml
        // files (root and bench harness).
        let root = clippy_probe::root_conf();
        let read =
            |rel: &str| fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let manifest = read("Cargo.toml");
        assert!(manifest.contains("disallowed_types = \"deny\""));
        let members = manifest
            .lines()
            .filter_map(|l| l.trim().strip_prefix('"')?.strip_suffix("\","))
            .filter(|m| !m.starts_with("vendor/"));
        for member in members {
            let crate_manifest = read(&format!("{member}/Cargo.toml"));
            assert!(
                crate_manifest.contains("[lints]\nworkspace = true"),
                "{member} must opt into the workspace lints"
            );
        }
        for conf in ["clippy.toml", "crates/bench/clippy.toml"] {
            let listed = read(conf);
            for ty in [
                "std::time::SystemTime",
                "std::collections::HashMap",
                "std::collections::HashSet",
            ] {
                assert!(listed.contains(&format!("\"{ty}\"")), "{conf}: {ty}");
            }
        }
    }

    #[test]
    fn findings_are_line_sorted() {
        let src = "fn f() { x % y;\n y % z; }";
        let out = lint_source("crates/crypto/src/shares.rs", src);
        assert_eq!(out.len(), 2);
        assert!(out[0].line < out[1].line);
    }
}
