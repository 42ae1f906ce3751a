//! `dmw-lint` — workspace-wide protocol-invariant static analysis.
//!
//! The DMW protocol's safety rests on a handful of code-level invariants
//! that neither the type system nor clippy can express: no raw machine
//! arithmetic on field residues, no round-number dispatch in the phase
//! modules, no unbudgeted retry loops in the reliability sublayer, no
//! secret reaching a serialization sink, no hash-order iteration in the
//! deterministic crates, and no phase transition the spec does not
//! declare. This crate enforces them in two layers:
//!
//! * **lexical** — a small Rust lexer ([`lexer`]) and three token-pattern
//!   rules, L2, L6 and L8 ([`rules`]), scoped to the modules where they
//!   are unambiguous;
//! * **flow-sensitive** — a token-tree parser ([`parse`]) feeding the
//!   L9 secrecy-taint and L10 determinism-order passes ([`flow`],
//!   configured by the checked-in `lint.toml`, see [`config`]) and the
//!   L11 phase-graph conformance check ([`phase_graph`], against
//!   `docs/phase_graph.toml`).
//!
//! The invariants clippy does express — no panic paths (L1), no wildcard
//! arms (L3), no ambient entropy (L4), no truncating, wrapping or
//! sign-losing casts (L5), no wall clock (L7) — are clippy lints with
//! their levels set in source, so those rule numbers are unused here.
//!
//! A justified-allowlist escape hatch ([`allow`]) covers the waivable
//! rules; findings render as human diagnostics or as a stable JSON
//! report ([`report`]). See `docs/static_analysis.md` for the rule
//! catalogue and rationale.
//!
//! Entry points: [`lint_source`] for one file (used by the fixture
//! tests), [`lint_workspace`] for the tree walk plus the crate-level
//! passes (used by the CLI and the tier-1 integration test).

pub mod allow;
pub mod config;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod phase_graph;
pub mod report;
pub mod rules;
pub mod toml_lite;

#[cfg(test)]
#[path = "../tests/support/clippy.rs"]
mod clippy_probe;

pub use config::LintConfig;
pub use rules::Finding;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned: build output, vendored stubs (external
/// idiom, not protocol code) and the lint's own deliberately-dirty
/// fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// A rule pass: tokens in, findings out.
type Rule = fn(&[lexer::Token]) -> Vec<Finding>;

/// Which lexical rules police `path` (workspace-relative, `/`-separated).
fn rules_for_path(path: &str) -> Vec<Rule> {
    let mut out: Vec<Rule> = Vec::new();
    // The typed phase state machine: the protocol equations moved here
    // from agent.rs, and its round-independence is what L6 protects.
    let in_phases = path.starts_with("crates/core/src/phases/");
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

/// Lints one file's source as if it lived at `path` (workspace-relative),
/// under the embedded `lint.toml` and without the crate-level L9 sink
/// summaries. Returns surviving findings, including allowlist-misuse
/// findings.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_source_with(
        path,
        source,
        LintConfig::embedded(),
        &flow::SinkSummaries::new(),
    )
}

/// [`lint_source`] with an explicit configuration and the sink-like
/// function summaries derived by the crate-level pass
/// ([`flow::sink_summaries`]).
pub fn lint_source_with(
    path: &str,
    source: &str,
    cfg: &LintConfig,
    extra_sinks: &flow::SinkSummaries,
) -> Vec<Finding> {
    let (tokens, comments) = lexer::lex(source);
    let tokens = rules::strip_test_regions(&tokens);
    let mut findings = Vec::new();
    for rule in rules_for_path(path) {
        findings.extend(rule(&tokens));
    }
    let in_l9 = LintConfig::in_scope(&cfg.l9_scope, path);
    let in_l10 = LintConfig::in_scope(&cfg.l10_scope, path);
    if in_l9 || in_l10 {
        let parsed = parse::parse(&tokens);
        if in_l9 {
            findings.extend(flow::l9(&tokens, &parsed, cfg, extra_sinks));
        }
        if in_l10 {
            findings.extend(flow::l10(&tokens, &parsed));
        }
    }
    let mut parse_errors = Vec::new();
    let directives = allow::parse_directives(&comments, &mut parse_errors);
    let mut out = allow::apply(&directives, findings);
    out.extend(parse_errors);
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

/// Lints every `.rs` file under `root` (skipping `SKIP_DIRS`), sorted
/// by path then line, plus the crate-level passes: L9 sink
/// summarization across the in-scope crates and the L11 phase-graph
/// conformance check. A `lint.toml` at `root` overrides the embedded
/// configuration; a malformed one is a hard error.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<FileFinding>> {
    let cfg = match fs::read_to_string(root.join("lint.toml")) {
        Ok(src) => {
            LintConfig::parse(&src).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        }
        Err(_) => LintConfig::embedded().clone(),
    };
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_str()
            .map(|s| s.replace('\\', "/"))
            .unwrap_or_default();
        sources.push((rel_str, source));
    }

    // Crate-level L9: derive sink-like functions across every in-scope
    // file, so taint is caught one call away from the literal sink.
    let parsed_in_scope: Vec<(parse::ParsedFile, Vec<lexer::Token>)> = sources
        .iter()
        .filter(|(path, _)| LintConfig::in_scope(&cfg.l9_scope, path))
        .map(|(_, src)| {
            let (tokens, _) = lexer::lex(src);
            let tokens = rules::strip_test_regions(&tokens);
            (parse::parse(&tokens), tokens)
        })
        .collect();
    let extra_sinks = flow::sink_summaries(&parsed_in_scope, &cfg);

    let mut out = Vec::new();
    for (rel_str, source) in &sources {
        for finding in lint_source_with(rel_str, source, &cfg, &extra_sinks) {
            out.push(FileFinding {
                path: rel_str.clone(),
                finding,
            });
        }
    }

    // Crate-level L11: the phase graph against its spec.
    let spec_src = fs::read_to_string(root.join(&cfg.l11_spec)).ok();
    let phase_files: Vec<(String, String)> = sources
        .iter()
        .filter(|(path, _)| path.starts_with("crates/core/src/phases/"))
        .cloned()
        .collect();
    out.extend(phase_graph::check_sources(
        &cfg.l11_spec,
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
        // L4's `SystemTime` ban is clippy's `disallowed_types`: denied in
        // every workspace member through `[workspace.lints]`, and listed
        // in both clippy.toml files (root and bench harness).
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
            assert!(read(conf).contains("\"std::time::SystemTime\""), "{conf}");
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
