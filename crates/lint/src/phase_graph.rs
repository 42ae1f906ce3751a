//! L11 — phase-graph conformance.
//!
//! The `Phase` state machine in `crates/core/src/phases/` is the
//! protocol's documented control skeleton. This rule keeps the code and
//! the machine-readable spec (`docs/phase_graph.toml`) from drifting
//! apart silently, in both directions:
//!
//! * variant set: the spec's `phases` list must equal the `Phase` enum;
//! * edge set: every `Phase::A => Phase::B` transition arm found under
//!   `phases/` must be declared in the spec, and every declared edge
//!   must exist in code;
//! * shape: every phase must be reachable from `initial` along spec
//!   edges, and `terminal` must be absorbing (no outgoing edge except
//!   its self-loop).
//!
//! L11 is unwaivable by design: the spec file *is* the escape hatch. An
//! intended new transition is a one-line spec edit reviewed next to the
//! code change; an allow comment would hide exactly the drift this rule
//! exists to catch.

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{matching, strip_test_regions, Finding};
use crate::toml_lite;
use crate::FileFinding;
use std::collections::{BTreeMap, BTreeSet};

/// The parsed `docs/phase_graph.toml`.
#[derive(Debug, Clone)]
pub struct PhaseGraphSpec {
    /// Declared phase names.
    pub phases: Vec<String>,
    /// Entry phase.
    pub initial: String,
    /// Absorbing terminal phase.
    pub terminal: String,
    /// Declared transition edges.
    pub edges: Vec<(String, String)>,
}

impl PhaseGraphSpec {
    /// Parses the spec file. Edges use the `"From -> To"` form so the
    /// file stays within the lint's TOML subset and diffs one edge per
    /// line.
    pub fn parse(src: &str) -> Result<PhaseGraphSpec, String> {
        let doc = toml_lite::parse(src)?;
        let phases = doc
            .list("", "phases")
            .ok_or("phase_graph.toml: missing `phases` array")?
            .to_vec();
        let initial = doc
            .str("", "initial")
            .ok_or("phase_graph.toml: missing `initial`")?
            .to_owned();
        let terminal = doc
            .str("", "terminal")
            .ok_or("phase_graph.toml: missing `terminal`")?
            .to_owned();
        let mut edges = Vec::new();
        for e in doc
            .list("", "edges")
            .ok_or("phase_graph.toml: missing `edges` array")?
        {
            let (from, to) = e
                .split_once("->")
                .ok_or_else(|| format!("phase_graph.toml: edge `{e}` is not `From -> To`"))?;
            edges.push((from.trim().to_owned(), to.trim().to_owned()));
        }
        Ok(PhaseGraphSpec {
            phases,
            initial,
            terminal,
            edges,
        })
    }
}

/// One transition arm found in code.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CodeEdge {
    /// Source phase.
    pub from: String,
    /// Target phase.
    pub to: String,
    /// 1-based line of the arm.
    pub line: u32,
}

/// Extracts `Phase::A => Phase::B` arms from one token stream.
pub fn extract_edges(tokens: &[Token]) -> Vec<CodeEdge> {
    let mut out = Vec::new();
    let is = |t: Option<&Token>, c: char| t.map(|t| t.kind) == Some(TokenKind::Punct(c));
    fn ident(t: Option<&Token>) -> Option<&str> {
        t.and_then(|t| (t.kind == TokenKind::Ident).then_some(t.text.as_str()))
    }
    for i in 0..tokens.len() {
        // Pattern: Phase :: A = > Phase :: B
        if ident(tokens.get(i)) == Some("Phase")
            && is(tokens.get(i + 1), ':')
            && is(tokens.get(i + 2), ':')
            && is(tokens.get(i + 4), '=')
            && is(tokens.get(i + 5), '>')
            && ident(tokens.get(i + 6)) == Some("Phase")
            && is(tokens.get(i + 7), ':')
            && is(tokens.get(i + 8), ':')
        {
            if let (Some(from), Some(to)) = (ident(tokens.get(i + 3)), ident(tokens.get(i + 9))) {
                out.push(CodeEdge {
                    from: from.to_owned(),
                    to: to.to_owned(),
                    line: tokens[i].line,
                });
            }
        }
    }
    out
}

/// The line and variant names of the `enum Phase` in one token stream:
/// the first identifier of each top-level comma-separated segment of its
/// body, with attributes and variant payloads skipped.
pub(crate) fn phase_enum(tokens: &[Token]) -> Option<(u32, Vec<String>)> {
    let at = tokens.windows(2).position(|w| {
        w[0].kind == TokenKind::Ident
            && w[0].text == "enum"
            && w[1].kind == TokenKind::Ident
            && w[1].text == "Phase"
    })?;
    let open = (at + 2..tokens.len()).find(|&k| tokens[k].kind == TokenKind::Punct('{'))?;
    let close = matching(tokens, open, '{', '}')?;
    let mut variants = Vec::new();
    let mut expecting_name = true;
    let mut i = open + 1;
    while i < close {
        match tokens[i].kind {
            TokenKind::Punct('#') => {
                i = matching(tokens, i + 1, '[', ']').map_or(close, |c| c + 1);
            }
            TokenKind::Punct(c @ ('(' | '{')) => {
                let end = if c == '(' { ')' } else { '}' };
                i = matching(tokens, i, c, end).map_or(close, |c| c + 1);
            }
            TokenKind::Punct(',') => {
                expecting_name = true;
                i += 1;
            }
            TokenKind::Ident if expecting_name => {
                variants.push(tokens[i].text.clone());
                expecting_name = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    Some((tokens[at].line, variants))
}

/// Runs the full conformance check over in-memory sources: the spec text
/// and every `(path, source)` under `phases/`. Separated from the disk
/// walk so fixture tests can inject drifted copies of either side.
pub fn check_sources(
    spec_path: &str,
    spec_src: Option<&str>,
    phase_files: &[(String, String)],
) -> Vec<FileFinding> {
    let at = |path: &str, line: u32, message: String| FileFinding {
        path: path.to_owned(),
        finding: Finding {
            rule: "L11",
            line,
            message,
        },
    };
    let mut out = Vec::new();

    let Some(spec_src) = spec_src else {
        out.push(at(
            spec_path,
            1,
            "phase-graph spec is missing — every `Phase` transition must be declared here"
                .to_owned(),
        ));
        return out;
    };
    let spec = match PhaseGraphSpec::parse(spec_src) {
        Ok(s) => s,
        Err(e) => {
            out.push(at(spec_path, 1, e));
            return out;
        }
    };

    // Gather the code side: the Phase enum and every transition arm.
    let mut variants: Option<(String, u32, Vec<String>)> = None; // (path, line, names)
    let mut code_edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for (path, src) in phase_files {
        let tokens = strip_test_regions(&lex(src));
        for e in extract_edges(&tokens) {
            code_edges
                .entry((e.from, e.to))
                .or_insert_with(|| (path.clone(), e.line));
        }
        if let Some((line, names)) = phase_enum(&tokens) {
            variants = Some((path.clone(), line, names));
        }
    }
    let Some((enum_path, enum_line, variants)) = variants else {
        out.push(at(
            spec_path,
            1,
            "no `Phase` enum found under phases/ — cannot check the transition graph".to_owned(),
        ));
        return out;
    };

    // Variant-set conformance, both directions.
    let spec_set: BTreeSet<&str> = spec.phases.iter().map(String::as_str).collect();
    let code_set: BTreeSet<&str> = variants.iter().map(String::as_str).collect();
    for missing in code_set.difference(&spec_set) {
        out.push(at(
            &enum_path,
            enum_line,
            format!("phase `{missing}` is not declared in the spec's `phases` list"),
        ));
    }
    for ghost in spec_set.difference(&code_set) {
        out.push(at(
            spec_path,
            1,
            format!("spec declares phase `{ghost}` which does not exist in the `Phase` enum"),
        ));
    }

    // Edge-set conformance, both directions.
    let spec_edges: BTreeSet<(&str, &str)> = spec
        .edges
        .iter()
        .map(|(f, t)| (f.as_str(), t.as_str()))
        .collect();
    for ((from, to), (path, line)) in &code_edges {
        if !spec_edges.contains(&(from.as_str(), to.as_str())) {
            out.push(at(
                path,
                *line,
                format!(
                    "undeclared transition `{from} -> {to}` — add it to the spec \
                     (docs/phase_graph.toml) if intended"
                ),
            ));
        }
    }
    for (from, to) in &spec_edges {
        if !code_edges.contains_key(&((*from).to_owned(), (*to).to_owned())) {
            out.push(at(
                spec_path,
                1,
                format!("spec drift: declared transition `{from} -> {to}` is not implemented"),
            ));
        }
    }

    // Spec-shape checks: endpoints declared, initial/terminal declared,
    // reachability, absorbing terminal.
    for name in [&spec.initial, &spec.terminal] {
        if !spec_set.contains(name.as_str()) {
            out.push(at(
                spec_path,
                1,
                format!("`{name}` is named initial/terminal but missing from `phases`"),
            ));
        }
    }
    for (from, to) in &spec.edges {
        for end in [from, to] {
            if !spec_set.contains(end.as_str()) {
                out.push(at(
                    spec_path,
                    1,
                    format!("edge endpoint `{end}` is not a declared phase"),
                ));
            }
        }
    }
    let mut reachable: BTreeSet<&str> = BTreeSet::new();
    let mut frontier = vec![spec.initial.as_str()];
    while let Some(p) = frontier.pop() {
        if !reachable.insert(p) {
            continue;
        }
        for (from, to) in &spec_edges {
            if *from == p {
                frontier.push(to);
            }
        }
    }
    for phase in &spec.phases {
        if !reachable.contains(phase.as_str()) {
            out.push(at(
                spec_path,
                1,
                format!("phase `{phase}` is unreachable from `{}`", spec.initial),
            ));
        }
    }
    for (from, to) in &spec_edges {
        if *from == spec.terminal && to != from {
            out.push(at(
                spec_path,
                1,
                format!(
                    "terminal `{}` must be absorbing but has edge to `{to}`",
                    spec.terminal
                ),
            ));
        }
    }

    out.sort_by(|a, b| (&a.path, a.finding.line).cmp(&(&b.path, b.finding.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
phases = ["Bidding", "Commitments", "Claimed"]
initial = "Bidding"
terminal = "Claimed"
edges = [
  "Bidding -> Commitments",
  "Commitments -> Claimed",
  "Claimed -> Claimed",
]
"#;

    const CODE: &str = "pub enum Phase { Bidding, Commitments, Claimed }\n\
        impl Phase { pub fn next(self) -> Phase { match self {\n\
        Phase::Bidding => Phase::Commitments,\n\
        Phase::Commitments => Phase::Claimed,\n\
        Phase::Claimed => Phase::Claimed,\n\
        } } }";

    fn run(spec: &str, code: &str) -> Vec<FileFinding> {
        check_sources(
            "docs/phase_graph.toml",
            Some(spec),
            &[("crates/core/src/phases/mod.rs".to_owned(), code.to_owned())],
        )
    }

    #[test]
    fn conforming_code_and_spec_are_clean() {
        assert!(run(SPEC, CODE).is_empty(), "{:?}", run(SPEC, CODE));
    }

    #[test]
    fn an_undeclared_transition_is_denied() {
        let drifted = CODE.replace(
            "Phase::Claimed => Phase::Claimed",
            "Phase::Claimed => Phase::Bidding",
        );
        let out = run(SPEC, &drifted);
        assert!(
            out.iter()
                .any(|f| f.finding.message.contains("undeclared transition")),
            "{out:?}"
        );
        // The removed self-loop also shows up as spec drift.
        assert!(out.iter().any(|f| f.finding.message.contains("spec drift")));
    }

    #[test]
    fn spec_only_phases_and_unreachable_phases_are_denied() {
        let ghost = SPEC.replace(
            "\"Bidding\", \"Commitments\", \"Claimed\"",
            "\"Bidding\", \"Commitments\", \"Claimed\", \"Limbo\"",
        );
        let out = run(&ghost, CODE);
        assert!(out.iter().any(|f| f
            .finding
            .message
            .contains("does not exist in the `Phase` enum")));
        assert!(out
            .iter()
            .any(|f| f.finding.message.contains("unreachable")));
    }

    #[test]
    fn phase_variants_skip_attributes_and_payloads() {
        let tokens = lex(
            "pub enum Other { X }\n#[derive(Debug)] pub enum Phase { Bidding, \
             #[doc = \"c\"] Commitments { n: usize }, Resolution(u64), Claimed }",
        );
        assert_eq!(
            phase_enum(&tokens),
            Some((
                2,
                vec![
                    "Bidding".to_owned(),
                    "Commitments".to_owned(),
                    "Resolution".to_owned(),
                    "Claimed".to_owned()
                ]
            ))
        );
    }

    #[test]
    fn a_missing_spec_is_itself_a_finding() {
        let out = check_sources("docs/phase_graph.toml", None, &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].finding.rule, "L11");
    }

    #[test]
    fn a_non_absorbing_terminal_is_denied() {
        let spec = SPEC.replace(
            "\"Claimed -> Claimed\"",
            "\"Claimed -> Claimed\", \"Claimed -> Bidding\"",
        );
        let code = CODE.replace(
            "Phase::Claimed => Phase::Claimed,",
            "Phase::Claimed => Phase::Claimed,\nPhase::Claimed => Phase::Bidding,",
        );
        let out = run(&spec, &code);
        assert!(
            out.iter()
                .any(|f| f.finding.message.contains("must be absorbing")),
            "{out:?}"
        );
    }
}
