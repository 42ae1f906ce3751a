//! Allowlist directives — the escape hatch, and the rules *about* the
//! escape hatch.
//!
//! Grammar (line comments only):
//!
//! ```text
//! // dmw-lint: allow(L10): justification text
//! ```
//!
//! An `allow` suppresses matching findings on its own line and the line
//! below (so the directive can sit above the offending statement or
//! trail it). Only the flow heuristics L9 and L10 are waivable. Waivers
//! for the invariants clippy enforces are `#[expect(clippy::…, reason =
//! "…")]` attributes in source instead.
//!
//! Directive misuse is itself reported as findings under the `allowlist`
//! rule: unknown rule keys, `allow`s that suppress nothing, missing
//! justifications, any attempt to allow `L2`/`L6`/`L8`/`L11` (which are
//! unconditional), and malformed `dmw-lint:` comments.

use crate::lexer::Comment;
use crate::rules::Finding;

/// Rule keys an `allow(...)` may name. L9/L10 are waivable because both
/// are flow heuristics over token shapes: a justified annotation at a
/// genuinely-safe site (e.g. a set iterated only for membership counting)
/// is better than weakening the rule for everyone.
const ALLOWED_KEYS: &[&str] = &["L9", "L10"];

/// Rule keys that exist but must never be allowlisted. L11 is here
/// because the phase-graph spec (`docs/phase_graph.toml`) *is* the escape
/// hatch: an intended new transition belongs in the spec, not behind an
/// allow comment.
const UNWAIVABLE_KEYS: &[&str] = &["L2", "L6", "L8", "L11"];

/// A parsed `// dmw-lint: …` directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule keys inside the parentheses.
    pub keys: Vec<String>,
    /// Justification text after the trailing `:` (trimmed), if any.
    pub justification: Option<String>,
}

impl Directive {
    /// Justified, and naming waivable keys only: the directive may
    /// suppress findings.
    fn is_valid(&self) -> bool {
        self.justification.is_some() && self.keys.iter().all(|k| ALLOWED_KEYS.contains(&k.as_str()))
    }
}

/// Extracts directives from a file's comments; malformed `dmw-lint:`
/// comments are reported straight into `errors`.
pub fn parse_directives(comments: &[Comment], errors: &mut Vec<Finding>) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("dmw-lint:") else {
            continue;
        };
        if !c.is_line {
            errors.push(misuse(
                c.line,
                "dmw-lint directives must be `//` line comments",
            ));
            continue;
        }
        let Some(rest) = rest
            .trim()
            .strip_prefix("allow")
            .and_then(|r| r.trim_start().strip_prefix('('))
        else {
            errors.push(misuse(
                c.line,
                "unknown dmw-lint directive — expected `allow(…)`",
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            errors.push(misuse(c.line, "unclosed `(` in dmw-lint directive"));
            continue;
        };
        let keys: Vec<String> = rest[..close]
            .split(',')
            .map(|k| k.trim().to_owned())
            .filter(|k| !k.is_empty())
            .collect();
        if keys.is_empty() {
            errors.push(misuse(c.line, "empty rule list in dmw-lint directive"));
            continue;
        }
        let tail = rest[close + 1..].trim();
        let justification = tail
            .strip_prefix(':')
            .map(|j| j.trim().to_owned())
            .filter(|j| !j.is_empty());
        out.push(Directive {
            line: c.line,
            keys,
            justification,
        });
    }
    out
}

/// Validates directives and applies them to `findings`, returning the
/// surviving findings plus any directive-misuse findings.
pub fn apply(directives: &[Directive], findings: Vec<Finding>) -> Vec<Finding> {
    let mut errors = Vec::new();
    let mut used = vec![false; directives.len()];
    let mut kept = Vec::new();

    for d in directives {
        for key in &d.keys {
            if UNWAIVABLE_KEYS.contains(&key.as_str()) {
                errors.push(misuse(
                    d.line,
                    &format!("`{key}` findings cannot be allowlisted — fix the code"),
                ));
            } else if !ALLOWED_KEYS.contains(&key.as_str()) {
                errors.push(misuse(d.line, &format!("unknown rule `{key}`")));
            }
        }
        if d.justification.is_none() {
            errors.push(misuse(
                d.line,
                "allow directive without a justification — append `: why this is safe`",
            ));
        }
    }

    for f in findings {
        let suppressed = directives.iter().position(|d| {
            d.is_valid()
                && d.keys.iter().any(|k| k == f.rule)
                && (d.line == f.line || d.line + 1 == f.line)
        });
        match suppressed {
            Some(idx) => used[idx] = true,
            None => kept.push(f),
        }
    }

    for (d, was_used) in directives.iter().zip(&used) {
        if d.is_valid() && !was_used {
            errors.push(misuse(
                d.line,
                "unused allow directive — delete it (stale allows hide future regressions)",
            ));
        }
    }

    kept.extend(errors);
    kept
}

fn misuse(line: u32, message: &str) -> Finding {
    Finding {
        rule: "allowlist",
        line,
        message: message.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(src: &str, findings: Vec<Finding>) -> Vec<Finding> {
        let (_, comments) = lex(src);
        let mut errors = Vec::new();
        let directives = parse_directives(&comments, &mut errors);
        let mut out = apply(&directives, findings);
        out.extend(errors);
        out
    }

    fn l10_at(line: u32) -> Finding {
        Finding {
            rule: "L10",
            line,
            message: "x".into(),
        }
    }

    #[test]
    fn justified_allow_suppresses_same_and_next_line() {
        let src = "// dmw-lint: allow(L10): membership count only\nset.iter().count();";
        assert!(check(src, vec![l10_at(2)]).is_empty());
        let trailing = "set.iter().count(); // dmw-lint: allow(L10): membership count only";
        assert!(check(trailing, vec![l10_at(1)]).is_empty());
    }

    #[test]
    fn allow_without_justification_is_an_error_and_does_not_suppress() {
        let src = "// dmw-lint: allow(L10)\nset.iter().count();";
        let out = check(src, vec![l10_at(2)]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.rule == "allowlist"));
        assert!(out.iter().any(|f| f.rule == "L10"));
    }

    #[test]
    fn l2_and_l3_cannot_be_allowed() {
        for key in ["L2", "L6", "L8", "L11"] {
            let src = format!("// dmw-lint: allow({key}): please\nlet x = a % b;");
            let out = check(&src, vec![]);
            assert!(
                out.iter()
                    .any(|f| f.message.contains("cannot be allowlisted")),
                "{key}: {out:?}"
            );
        }
        // L3 (and L1, L4, L5, L7) are clippy lints now: dmw-lint does not
        // know them, so an allow naming one waives nothing.
        for key in ["L1", "L3", "L4", "L5", "L7"] {
            let src = format!("// dmw-lint: allow({key}): please\nlet x = 1;");
            assert!(
                check(&src, vec![])
                    .iter()
                    .any(|f| f.message.contains("unknown rule")),
                "{key}"
            );
        }
    }

    #[test]
    fn unused_and_unknown_allows_are_errors() {
        let unused = "// dmw-lint: allow(L10): no finding here\nlet x = 1;";
        assert!(check(unused, vec![])
            .iter()
            .any(|f| f.message.contains("unused")));
        let unknown = "// dmw-lint: allow(L99): what\nlet x = 1;";
        assert!(check(unknown, vec![])
            .iter()
            .any(|f| f.message.contains("unknown rule")));
    }

    #[test]
    fn allow_file_is_l1_index_only_and_file_wide() {
        // Named for the retired `allow-file(L1-index)` form, which now
        // waives nothing: file-wide waivers are `#![expect(clippy::…)]`
        // attributes in source.
        let src = "// dmw-lint: allow-file(L10): bounds checked at entry\n";
        let out = check(src, vec![l10_at(400)]);
        assert!(out.iter().any(|f| f.rule == "L10"), "{out:?}");
        assert!(
            out.iter()
                .any(|f| f.message.contains("unknown dmw-lint directive")),
            "{out:?}"
        );
    }
}
