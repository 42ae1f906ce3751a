//! The machine-readable findings report (`--format json`).
//!
//! The schema is deliberately tiny and stable — CI diffs the committed
//! `docs/lint_report.json` against a fresh run, so the output must be
//! byte-deterministic: findings arrive already sorted (path, then line,
//! then rule), `by_rule` is a sorted map, and nothing environmental
//! (timestamps, absolute paths, hostnames) is ever emitted. Bump the
//! `schema` string on any shape change.
//!
//! ```json
//! {
//!   "schema": "dmw-lint-report/v2",
//!   "summary": { "total": 0, "by_rule": {} },
//!   "findings": []
//! }
//! ```

use crate::FileFinding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier emitted in every report.
pub const SCHEMA: &str = "dmw-lint-report/v2";

/// Renders findings as the stable JSON report (trailing newline
/// included, so the file is POSIX-clean when written to disk).
pub fn to_json(findings: &[FileFinding]) -> String {
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *by_rule.entry(f.finding.rule).or_insert(0) += 1;
    }
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", quote(SCHEMA));
    out.push_str("  \"summary\": {\n");
    let _ = writeln!(out, "    \"total\": {},", findings.len());
    if by_rule.is_empty() {
        out.push_str("    \"by_rule\": {}\n");
    } else {
        out.push_str("    \"by_rule\": {\n");
        let last = by_rule.len() - 1;
        for (i, (rule, count)) in by_rule.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            let _ = writeln!(out, "      {}: {count}{comma}", quote(rule));
        }
        out.push_str("    }\n");
    }
    out.push_str("  },\n");
    if findings.is_empty() {
        out.push_str("  \"findings\": []\n");
    } else {
        out.push_str("  \"findings\": [\n");
        let last = findings.len() - 1;
        for (i, f) in findings.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{ \"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {} }}{comma}",
                quote(&f.path),
                f.finding.line,
                quote(f.finding.rule),
                quote(&f.finding.message),
            );
        }
        out.push_str("  ]\n");
    }
    out.push_str("}\n");
    out
}

/// JSON string quoting with the mandatory escapes.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn finding(path: &str, rule: &'static str, line: u32, message: &str) -> FileFinding {
        FileFinding {
            path: path.to_owned(),
            finding: Finding {
                rule,
                line,
                message: message.to_owned(),
            },
        }
    }

    #[test]
    fn empty_report_is_the_documented_fixed_point() {
        let json = to_json(&[]);
        assert!(json.contains("\"schema\": \"dmw-lint-report/v2\""));
        assert!(json.contains("\"total\": 0"));
        assert!(json.contains("\"by_rule\": {}"));
        assert!(json.contains("\"findings\": []"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn findings_serialize_with_escapes_and_counts() {
        let json = to_json(&[
            finding("a.rs", "L9", 3, "secret `bid` reaches \"sink\""),
            finding("a.rs", "L9", 9, "x"),
            finding("b.rs", "L10", 1, "y\nz"),
        ]);
        assert!(json.contains("\"L9\": 2"));
        assert!(json.contains("\"L10\": 1"));
        assert!(json.contains("\\\"sink\\\""));
        assert!(json.contains("y\\nz"));
        assert!(json.contains("\"total\": 3"));
    }

    #[test]
    fn output_is_deterministic() {
        let f = vec![finding("a.rs", "L10", 1, "m")];
        assert_eq!(to_json(&f), to_json(&f));
    }
}
