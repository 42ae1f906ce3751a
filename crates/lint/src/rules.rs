//! The lexical protocol-invariant rules: L2, L6 and L8.
//!
//! Each rule is a pure function over the token stream of one file (test
//! modules already stripped) and reports [`Finding`]s with 1-based lines.
//! The rules are deliberately lexical: they cannot type-check, so each one
//! is scoped (by `crate::rules_for_path`) to modules where its token
//! pattern is unambiguous, and the precise semantics are documented in
//! `docs/static_analysis.md`. Rules must never read literal contents —
//! the lexer blanks them — so quoted text cannot trip a rule.
//!
//! The numbering has gaps on purpose: L1 (panic paths), L3 (wildcard
//! arms), L4 (ambient entropy), L5 (truncating casts) and L7 (wall clock)
//! are clippy lints now, with their levels set in source. Only the rules
//! clippy cannot express live here.

use crate::lexer::{Token, TokenKind};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`L2`, `L6`, `L8`–`L11`, or `allowlist` for
    /// directive misuse); an allow directive names it to suppress the
    /// finding.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description with a remediation hint.
    pub message: String,
}

fn finding(rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        line,
        message,
    }
}

/// Removes token ranges under `#[cfg(test)]` (and any attribute whose
/// arguments mention `test`, e.g. `#[cfg(all(test, …))]`): the rules police
/// protocol code, not tests, which unwrap freely by design.
pub fn strip_test_regions(tokens: &[Token]) -> Vec<Token> {
    let mut keep = vec![true; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct('#')
            && tokens.get(i + 1).map(|t| t.kind) == Some(TokenKind::Punct('['))
        {
            let close = match matching(tokens, i + 1, '[', ']') {
                Some(c) => c,
                None => break,
            };
            let is_cfg_test = tokens[i + 2..close]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == "cfg")
                && tokens[i + 2..close]
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text == "test");
            if !is_cfg_test {
                i = close + 1;
                continue;
            }
            // Strip from the attribute through the annotated item: up to
            // the matching `}` of its body, or the `;` of a bodiless item.
            let mut j = close + 1;
            let mut end = tokens.len() - 1;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokenKind::Punct('{') => {
                        end = matching(tokens, j, '{', '}').unwrap_or(tokens.len() - 1);
                        break;
                    }
                    TokenKind::Punct(';') => {
                        end = j;
                        break;
                    }
                    _ => j += 1,
                }
            }
            for flag in keep.iter_mut().take(end + 1).skip(i) {
                *flag = false;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    tokens
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| k)
        .map(|(t, _)| t.clone())
        .collect()
}

/// Index of the token matching `open` at `start` (which must hold `open`).
fn matching(tokens: &[Token], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(start) {
        if t.kind == TokenKind::Punct(open) {
            depth += 1;
        } else if t.kind == TokenKind::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Index of the token matching a closing `close` at `end`, scanning back.
fn matching_back(tokens: &[Token], end: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=end).rev() {
        if tokens[i].kind == TokenKind::Punct(close) {
            depth += 1;
        } else if tokens[i].kind == TokenKind::Punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

fn is_ident(t: &Token, name: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == name
}

/// Receivers on which `.pow(…)` and friends are the *modmath* field API
/// rather than raw machine arithmetic.
const FIELD_HANDLES: &[&str] = &["zp", "zq", "group"];

/// Field-API method names whose `u64` results must not feed raw operators.
const FIELD_METHODS: &[&str] = &[
    "add", "sub", "mul", "neg", "inv", "pow", "commit", "pow_z1", "pow_z2",
];

/// L2 — no raw arithmetic on field values outside `crates/modmath`:
/// `%` anywhere (reduction must use the field API), integer `.pow`-family
/// methods off a non-field receiver, machine-arithmetic wrappers
/// (`wrapping_*`/`checked_*`/…), and `+ - * %` directly adjacent to a
/// field-API call result.
pub fn l2(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Punct('%') {
            out.push(finding(
                "L2",
                t.line,
                "raw `%` reduction — field values are reduced by the \
                 `dmw_modmath` API (`zq.add`/`zp.mul`/…), never by hand"
                    .to_owned(),
            ));
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_method_call = i > 0
            && tokens[i - 1].kind == TokenKind::Punct('.')
            && tokens.get(i + 1).map(|n| n.kind) == Some(TokenKind::Punct('('));
        if t.text == "pow" {
            let field_receiver = is_method_call && i >= 2 && receiver_is_field(tokens, i - 2);
            // `u64::pow(..)` and `x.pow(..)` on a raw integer are both
            // banned; `zp.pow(..)` / `self.zq().pow(..)` are the API.
            let path_call = i >= 2
                && tokens[i - 1].kind == TokenKind::Punct(':')
                && tokens[i - 2].kind == TokenKind::Punct(':');
            if (is_method_call && !field_receiver) || path_call {
                out.push(finding(
                    "L2",
                    t.line,
                    "integer `pow` on a raw value — exponentiation of field \
                     elements must go through `zp.pow`/`zq.pow`"
                        .to_owned(),
                ));
            }
        }
        let wrapper = ["wrapping_", "checked_", "overflowing_", "saturating_"]
            .iter()
            .any(|p| t.text.starts_with(p));
        let arith_tail = ["add", "sub", "mul", "pow", "neg", "rem", "div"]
            .iter()
            .any(|s| t.text.ends_with(s));
        if wrapper && arith_tail && is_method_call {
            out.push(finding(
                "L2",
                t.line,
                format!(
                    "`.{}()` machine arithmetic — field values wrap at the \
                     modulus via the `dmw_modmath` API, not at 2^64",
                    t.text
                ),
            ));
        }
    }
    // `+ - *` directly against a field-API call: `zp.mul(a, b) + 1` or
    // `1 + zp.mul(a, b)` bypasses reduction.
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !FIELD_HANDLES.contains(&t.text.as_str())
            || tokens.get(i + 1).map(|n| n.kind) != Some(TokenKind::Punct('.'))
        {
            continue;
        }
        let Some(method) = tokens.get(i + 2) else {
            continue;
        };
        if method.kind != TokenKind::Ident
            || !FIELD_METHODS.contains(&method.text.as_str())
            || tokens.get(i + 3).map(|n| n.kind) != Some(TokenKind::Punct('('))
        {
            continue;
        }
        let raw_op = |tok: Option<&Token>| {
            matches!(
                tok.map(|x| x.kind),
                Some(TokenKind::Punct('+') | TokenKind::Punct('-') | TokenKind::Punct('*'))
            )
        };
        // Operator before the receiver (skipping a leading `-` of `->`).
        if i > 0
            && raw_op(Some(&tokens[i - 1]))
            && !(tokens[i - 1].kind == TokenKind::Punct('-')
                && i >= 2
                && tokens[i - 2].kind == TokenKind::Punct('-'))
        {
            let arrow = tokens[i - 1].kind == TokenKind::Punct('-')
                && i >= 2
                && tokens[i - 2].kind == TokenKind::Punct('>');
            if !arrow {
                out.push(finding(
                    "L2",
                    t.line,
                    "raw arithmetic on a field-API result — compose through \
                     `dmw_modmath` methods instead"
                        .to_owned(),
                ));
            }
        }
        // Operator after the call's closing parenthesis.
        if let Some(close) = matching(tokens, i + 3, '(', ')') {
            if raw_op(tokens.get(close + 1)) {
                out.push(finding(
                    "L2",
                    tokens[close].line,
                    "raw arithmetic on a field-API result — compose through \
                     `dmw_modmath` methods instead"
                        .to_owned(),
                ));
            }
        }
    }
    out
}

/// True when the token at `r` ends a field-handle receiver: the ident
/// `zp`/`zq`/`group` itself, or a call like `.zp()` / `.zq()`.
fn receiver_is_field(tokens: &[Token], r: usize) -> bool {
    match tokens[r].kind {
        TokenKind::Ident => FIELD_HANDLES.contains(&tokens[r].text.as_str()),
        TokenKind::Punct(')') => matching_back(tokens, r, '(', ')')
            .and_then(|open| open.checked_sub(1))
            .is_some_and(|m| {
                tokens[m].kind == TokenKind::Ident
                    && FIELD_HANDLES.contains(&tokens[m].text.as_str())
            }),
        _ => false,
    }
}

/// L6 — no raw round-number dispatch in the protocol phase modules: the
/// typed phase state machine owns protocol progression, so `match` over a
/// bare `round` counter (`match round { … }`, `match self.round { … }`)
/// and comparisons of `round` against integer literals (`round >= 4`,
/// `3 == round`) are banned outside the scheduler. A phase must decide
/// from *what arrived* (or its patience budget), never from *when it is*.
pub fn l6(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    let is_cmp_head =
        |t: Option<&Token>| matches!(t.map(|x| x.kind), Some(TokenKind::Punct('<' | '>')));
    for (i, t) in tokens.iter().enumerate() {
        if !is_ident(t, "round") {
            continue;
        }
        // `match round {` / `match self.round {` — walk back over a
        // field-access chain to the `match` keyword.
        if tokens.get(i + 1).map(|n| n.kind) == Some(TokenKind::Punct('{')) {
            let mut pos = i;
            while pos >= 2
                && tokens[pos - 1].kind == TokenKind::Punct('.')
                && tokens[pos - 2].kind == TokenKind::Ident
            {
                pos -= 2;
            }
            if pos >= 1 && is_ident(&tokens[pos - 1], "match") {
                out.push(finding(
                    "L6",
                    t.line,
                    "`match` over a round counter — dispatch on the typed \
                     `Phase` state machine, not on wall-clock rounds"
                        .to_owned(),
                ));
                continue;
            }
        }
        // `round <op> literal` with op in == != < <= > >=.
        let next = tokens.get(i + 1);
        let literal_after = if next.map(|n| n.kind) == Some(TokenKind::Punct('='))
            || next.map(|n| n.kind) == Some(TokenKind::Punct('!'))
        {
            // `==` / `!=` need a second `=`.
            tokens.get(i + 2).map(|n| n.kind) == Some(TokenKind::Punct('='))
                && tokens.get(i + 3).map(|n| n.kind) == Some(TokenKind::Literal)
        } else if is_cmp_head(next) {
            // `<` / `>` optionally followed by `=`.
            match tokens.get(i + 2).map(|n| n.kind) {
                Some(TokenKind::Punct('=')) => {
                    tokens.get(i + 3).map(|n| n.kind) == Some(TokenKind::Literal)
                }
                Some(TokenKind::Literal) => true,
                _ => false,
            }
        } else {
            false
        };
        // `literal <op> round`, scanning back from the counter.
        let literal_before = if i >= 3
            && tokens[i - 1].kind == TokenKind::Punct('=')
            && matches!(tokens[i - 2].kind, TokenKind::Punct('=' | '!' | '<' | '>'))
        {
            tokens[i - 3].kind == TokenKind::Literal
        } else if i >= 2 && is_cmp_head(Some(&tokens[i - 1])) {
            tokens[i - 2].kind == TokenKind::Literal
        } else {
            false
        };
        if literal_after || literal_before {
            out.push(finding(
                "L6",
                t.line,
                "round counter compared against a bare literal — phase \
                 completeness (or the patience budget) decides progression, \
                 not round numbers"
                    .to_owned(),
            ));
        }
    }
    out
}

/// Identifier fragments that mark a loop as retransmission machinery —
/// including the nack fast path and the retransmit suppressor, which
/// can livelock or storm just as easily as a plain timer sweep.
const RETRY_FRAGMENTS: &[&str] = &["retry", "resend", "retransmit", "nack", "suppress"];

/// L8 — no naked retry loops in the reliability-bearing modules
/// (`agent.rs`, `phases/`, `reliable.rs`): any `loop`/`while`/`for`
/// whose body touches a retry-family identifier (one containing
/// `retry`, `resend`, `retransmit`, `nack` or `suppress`) must also
/// reference a bounded budget (an identifier containing `budget`)
/// inside that same body. An unbounded retransmit sweep turns a dead
/// peer into a livelock, an ungated nack path amplifies loss into a
/// request storm, and both defeat the suspicion/exclusion path — so
/// this is unwaivable; bound the loop with the `RetryPolicy` budget
/// instead.
pub fn l8(tokens: &[Token]) -> Vec<Finding> {
    const LOOP_KEYWORDS: &[&str] = &["loop", "while", "for"];
    let mentions = |range: &[Token], fragments: &[&str]| {
        range.iter().any(|t| {
            t.kind == TokenKind::Ident && {
                let lower = t.text.to_ascii_lowercase();
                fragments.iter().any(|f| lower.contains(f))
            }
        })
    };
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !LOOP_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // Find the loop body: the first top-level `{` after the keyword,
        // skipping parenthesized/bracketed groups in the loop header
        // (closure bodies in an iterator chain live inside parens).
        let mut j = i + 1;
        let body_open = loop {
            match tokens.get(j).map(|n| n.kind) {
                Some(TokenKind::Punct('(')) => match matching(tokens, j, '(', ')') {
                    Some(close) => j = close + 1,
                    None => break None,
                },
                Some(TokenKind::Punct('[')) => match matching(tokens, j, '[', ']') {
                    Some(close) => j = close + 1,
                    None => break None,
                },
                Some(TokenKind::Punct('{')) => break Some(j),
                Some(TokenKind::Punct(';')) | None => break None,
                Some(_) => j += 1,
            }
        };
        let Some(open) = body_open else {
            continue;
        };
        let Some(close) = matching(tokens, open, '{', '}') else {
            continue;
        };
        let body = &tokens[open..=close];
        if mentions(body, RETRY_FRAGMENTS) && !mentions(body, &["budget"]) {
            out.push(finding(
                "L8",
                t.line,
                "retry/resend/nack loop without a bounded budget — an \
                 unbounded retransmit sweep livelocks against a dead peer \
                 and an ungated nack or suppressor path storms; gate every \
                 attempt on the `RetryPolicy` budget"
                    .to_owned(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clippy_probe::{bench_conf, clippy, root_conf, L1, L3, L5, L7, WORKSPACE_L4};
    use crate::lexer::lex;

    fn run(rule: fn(&[Token]) -> Vec<Finding>, src: &str) -> Vec<Finding> {
        let (tokens, _) = lex(src);
        rule(&strip_test_regions(&tokens))
    }

    /// The lints clippy reports for `src` at `levels` under the root
    /// `clippy.toml` (the L1/L3/L4/L5/L7 tests pin the clippy lints
    /// that replaced those rules).
    fn lints(src: &str, levels: &[&str]) -> Vec<String> {
        clippy(src, levels, &root_conf())
            .into_iter()
            .map(|(_, lint)| lint)
            .collect()
    }

    #[test]
    fn l1_catches_each_panic_shape() {
        let src = "pub fn f(x: Option<u8>, y: Option<u8>, v: &[u8]) -> u8 {
            let a = x.unwrap();
            let b = y.expect(\"m\");
            if a == b { panic!(\"n\"); }
            v[0]
        }";
        assert_eq!(
            lints(src, L1),
            ["unwrap_used", "expect_used", "panic", "indexing_slicing"]
        );
    }

    #[test]
    fn l1_ignores_non_index_brackets() {
        let clean = "pub fn f(a: &[u64]) -> [u8; 4] {
            let [x, y] = [1u64, 2];
            let _ = (vec![0; 3], a, x + y);
            #[derive(Debug)]
            struct S;
            [0; 4]
        }";
        assert!(lints(clean, L1).is_empty(), "{:?}", lints(clean, L1));
    }

    #[test]
    fn l1_skips_test_modules() {
        // The root clippy.toml's `allow-*-in-tests` exempts test code.
        let src = "pub fn live(a: Option<u8>) -> u8 { a.unwrap() }
            #[cfg(test)]
            mod tests {
                fn t(b: Option<u8>, v: &[u8]) -> u8 { b.unwrap(); panic!(\"{}\", v[0]) }
            }";
        assert_eq!(
            clippy(src, L1, &root_conf()),
            [(1, "unwrap_used".to_owned())]
        );
    }

    #[test]
    fn l3_catches_only_discarding_wildcards() {
        let enums = "pub enum M { A, B, C } pub enum E { X, Y }";
        let wild = format!("{enums} pub fn f(m: M) -> u8 {{ match m {{ M::A => 1, _ => 2 }} }}");
        assert_eq!(lints(&wild, L3), ["wildcard_enum_match_arm"]);
        // A two-variant enum needs the second lint of the pair.
        let single = format!("{enums} pub fn f(e: E) -> u8 {{ match e {{ E::X => 1, _ => 2 }} }}");
        assert_eq!(lints(&single, L3), ["match_wildcard_for_single_variants"]);
        // Open byte domains, closure and tuple patterns stay legal.
        let clean = "pub fn f(tag: u8, pair: (u8, u8)) -> u8 {
            let g = |_: u8| 3;
            let (_, a) = pair;
            match tag { 0 => g(a), other => other }
        }";
        assert!(lints(clean, L3).is_empty(), "{:?}", lints(clean, L3));
    }

    #[test]
    fn l4_catches_ambient_entropy_but_not_strings() {
        // The ambient RNG half of L4 cannot compile at all: see the
        // `compile_fail` doctests of `vendor/rand`.
        let src = "pub fn f() { let _t = std::time::SystemTime::now(); }";
        for (levels, conf) in [(L7, root_conf()), (WORKSPACE_L4, bench_conf())] {
            assert_eq!(
                clippy(src, levels, &conf),
                [(1, "disallowed_types".to_owned())]
            );
        }
        let quoted = "pub fn f() -> &'static str { \"SystemTime\" } // SystemTime";
        assert!(lints(quoted, L7).is_empty());
    }

    #[test]
    fn l5_catches_narrowing_not_widening() {
        assert_eq!(
            lints("pub fn f(y: u64) -> u32 { y as u32 }", L5),
            ["cast_possible_truncation"]
        );
        assert_eq!(
            lints("pub fn f(y: u64) -> usize { y as usize }", L5),
            ["cast_possible_truncation"]
        );
        assert_eq!(
            lints("pub fn f(y: u32) -> i32 { y as i32 }", L5),
            ["cast_possible_wrap"]
        );
        assert_eq!(
            lints("pub fn f(y: i32) -> u32 { y as u32 }", L5),
            ["cast_sign_loss"]
        );
        assert_eq!(
            lints("pub fn f(y: isize) -> usize { y as usize }", L5),
            ["cast_sign_loss"]
        );
        assert!(lints(
            "pub fn f(y: u32) -> (u64, u128) { (y as u64, y as u128) }",
            L5
        )
        .is_empty());
    }

    #[test]
    fn l2_catches_reduction_pow_and_adjacent_ops() {
        assert_eq!(run(l2, "let r = (a * b) % p;").len(), 1);
        assert_eq!(run(l2, "let r = x.pow(3);").len(), 1);
        assert_eq!(run(l2, "let r = u64::pow(x, 3);").len(), 1);
        assert_eq!(run(l2, "let r = x.wrapping_mul(y);").len(), 1);
        assert_eq!(run(l2, "let r = zp.mul(a, b) + 1;").len(), 1);
        assert_eq!(run(l2, "let r = 1 + zq.add(a, b);").len(), 1);
    }

    #[test]
    fn l2_permits_the_field_api() {
        let clean = "
            fn f(zp: &Zp, zq: &Zq, group: &G) -> u64 {
                let x = zp.mul(a, zq.add(b, c));
                let y = zp.pow(x, e);
                let z = group.zq().pow(x, e);
                zp.mul(x, y)
            }
        ";
        assert!(run(l2, clean).is_empty(), "{:?}", run(l2, clean));
    }

    #[test]
    fn l6_catches_round_dispatch_and_literal_comparisons() {
        assert_eq!(run(l6, "match round { 0 => a(), other => b() }").len(), 1);
        assert_eq!(run(l6, "match self.round { 0 => a(), n => b() }").len(), 1);
        assert_eq!(run(l6, "if round >= 4 { act(); }").len(), 1);
        assert_eq!(run(l6, "if round == 2 { act(); }").len(), 1);
        assert_eq!(run(l6, "if 3 == round { act(); }").len(), 1);
        assert_eq!(run(l6, "while round < 6 { tick(); }").len(), 1);
    }

    #[test]
    fn l7_catches_wall_clock_idents_but_not_strings() {
        let src = "pub fn f() { let _t = std::time::Instant::now(); }";
        assert_eq!(lints(src, L7), ["disallowed_types"]);
        // The bench harness's clippy.toml allows `Instant`.
        assert!(clippy(src, WORKSPACE_L4, &bench_conf()).is_empty());
        let clean =
            "pub fn f() -> u8 { let instant = 3; let _s = \"Instant\"; instant } // Instant";
        assert!(lints(clean, L7).is_empty());
    }

    #[test]
    fn l8_catches_naked_retry_loops() {
        assert_eq!(
            run(l8, "loop { resend(msg); }").len(),
            1,
            "bare resend loop"
        );
        assert_eq!(
            run(l8, "while !acked { retransmit(&msg); wait(); }").len(),
            1,
            "unbounded retransmit"
        );
        assert_eq!(
            run(l8, "for m in pending { m.next_retry = now + t; }").len(),
            1,
            "retry bookkeeping loop without a budget"
        );
    }

    #[test]
    fn l8_permits_budgeted_loops_and_unrelated_loops() {
        let budgeted = "
            for pending in &mut link.unacked {
                if pending.attempts >= self.policy.budget { break; }
                retransmit(pending);
            }
        ";
        assert!(run(l8, budgeted).is_empty(), "{:?}", run(l8, budgeted));
        assert!(run(l8, "for x in items { process(x); }").is_empty());
        // The retry ident in the header's closure is part of the body
        // scan only when braced into the body itself; a budgeted chain
        // stays clean.
        let chain = "
            while queue.iter().any(|m| { m.next_retry <= now }) {
                if attempts >= budget { break; }
                attempts += 1;
            }
        ";
        assert!(run(l8, chain).is_empty(), "{:?}", run(l8, chain));
        // Loops inside test modules are stripped like every other rule.
        let test_only = "
            #[cfg(test)]
            mod tests { fn t() { loop { resend(); } } }
        ";
        assert!(run(l8, test_only).is_empty());
    }

    #[test]
    fn l6_permits_counters_that_do_not_dispatch() {
        let clean = "
            fn f(round: u64, budget: u64) -> bool {
                let next = round + 1;
                round >= budget || transport.round() >= budget
            }
        ";
        assert!(run(l6, clean).is_empty(), "{:?}", run(l6, clean));
        // Matching on the *phase* is the sanctioned dispatch.
        assert!(run(l6, "match agent.phase { Phase::Bidding => a() }").is_empty());
    }
}
