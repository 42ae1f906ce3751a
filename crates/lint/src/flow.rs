//! The flow-sensitive rule families: L9 secrecy-taint and L10
//! determinism-order.
//!
//! Both rules run over the [`crate::parse`] symbol table plus the raw
//! token stream, one function body at a time, with a single
//! source-order dataflow pass per body:
//!
//! * **L9** seeds a taint set from parameters whose name or type is
//!   declared secret in `lint.toml`, propagates through `let` bindings
//!   (an initializer mentioning a tainted or source name taints the new
//!   binding, unless a sanitizer call intervenes), and reports any
//!   tainted or source value reaching a serialization sink — a sink
//!   call's receiver/arguments or a sink constructor's fields. A
//!   crate-level fixpoint ([`sink_summaries`]) additionally marks
//!   functions whose *parameters* flow into a sink as sink-like, so
//!   taint is caught one call deep, not just at the literal
//!   serialization site.
//! * **L10** tracks which locals, parameters and struct fields are
//!   `HashMap`/`HashSet`-typed and reports *iteration* over them
//!   (`for` loops, `iter`/`keys`/`values`/`drain`/… chains). Membership
//!   tests, inserts and lookups stay legal — only order-observing
//!   operations break the bit-parity determinism oracle.
//!
//! Like the lexical rules, both families prefer under-reporting to
//! misreporting: a construct the parser cannot classify produces no
//! finding, and each heuristic is scoped (via `lint.toml`) to crates
//! where its patterns are unambiguous.

use crate::config::LintConfig;
use crate::lexer::{Token, TokenKind};
use crate::parse::{FnItem, ParsedFile};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Sink-like functions derived by [`sink_summaries`]: name → one
/// summary per distinct arity. Position-sensitive on purpose: a runner
/// whose `rng` parameter reaches the transport must not make its
/// `bids` parameter a violation. Arity-keyed on purpose too: the lint
/// cannot resolve receiver types, so same-name methods on different
/// types merge — but only when their parameter counts match, and call
/// sites are matched by argument count. (Without this,
/// `BatchRunner::run_honest(&self, runner, seed, instances)` would
/// poison position 1 of `DmwRunner::run_honest(&self, bids, rng)`.)
pub type SinkSummaries = BTreeMap<String, Vec<SinkSummary>>;

/// Summary of one derived sink-like function at one arity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkSummary {
    /// Total parameter count, `self` included.
    pub arity: usize,
    /// Parameter positions (0-based, `self` counts) that reach a sink.
    pub params: BTreeSet<usize>,
    /// True when the function's first parameter is `self`.
    pub has_self: bool,
}

/// Hash-ordered collection type heads L10 polices.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that observe a collection's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

fn is_punct(t: Option<&Token>, c: char) -> bool {
    t.map(|t| t.kind) == Some(TokenKind::Punct(c))
}

fn is_kw(t: Option<&Token>, s: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
}

fn matching(tokens: &[Token], start: usize, open: char, close: char) -> Option<usize> {
    crate::parse::matching(tokens, start, open, close)
}

/// One `let` binding inside a body: name, optional ascribed-type range,
/// optional initializer range (token indices into the full stream).
struct LetBinding {
    name: String,
    ty: Option<(usize, usize)>,
    init: Option<(usize, usize)>,
}

/// Scans a body for simple `let [mut] name [: T] [= init];` bindings.
/// Pattern bindings (`let (a, b) = …`) are skipped — neither rule can
/// type them, and skipping under-reports rather than misreports.
fn let_bindings(tokens: &[Token], open: usize, close: usize) -> Vec<LetBinding> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        if !is_kw(tokens.get(i), "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if is_kw(tokens.get(j), "mut") {
            j += 1;
        }
        let Some(name_tok) = tokens.get(j) else { break };
        if name_tok.kind != TokenKind::Ident {
            i = j + 1;
            continue;
        }
        // Statement end: `;` at group depth 0 relative to the binding.
        let mut depth = 0usize;
        let mut k = j + 1;
        let mut colon = None;
        let mut eq = None;
        let mut end = close;
        while k < close {
            match tokens[k].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
                TokenKind::Punct(':') if depth == 0 && eq.is_none() && colon.is_none() => {
                    colon = Some(k);
                }
                TokenKind::Punct('=') if depth == 0 && eq.is_none() => {
                    // `==`, `<=`, `>=`, `=>` are not assignment.
                    let pair = is_punct(tokens.get(k + 1), '=')
                        || is_punct(tokens.get(k + 1), '>')
                        || matches!(
                            tokens.get(k - 1).map(|t| t.kind),
                            Some(TokenKind::Punct('=' | '<' | '>' | '!'))
                        );
                    if !pair {
                        eq = Some(k);
                    }
                }
                TokenKind::Punct(';') if depth == 0 => {
                    end = k;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        out.push(LetBinding {
            name: name_tok.text.clone(),
            ty: colon.map(|c| (c + 1, eq.unwrap_or(end))),
            init: eq.map(|e| (e + 1, end)),
        });
        i = end + 1;
    }
    out
}

// ---------------------------------------------------------------------
// L10 — determinism-order
// ---------------------------------------------------------------------

/// Flow-sensitive denial of `HashMap`/`HashSet` iteration. See module
/// docs; scoped by `lint.toml [l10] scope`.
pub fn l10(tokens: &[Token], file: &ParsedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Hash-typed struct fields anywhere in the file: iteration through
    // any `….field` access is flagged.
    let fields: BTreeSet<&str> = file
        .structs
        .iter()
        .flat_map(|s| &s.fields)
        .filter(|f| {
            f.type_head
                .as_deref()
                .is_some_and(|h| HASH_TYPES.contains(&h))
        })
        .map(|f| f.name.as_str())
        .collect();

    for f in &file.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut locals: BTreeSet<String> = f
            .params
            .iter()
            .filter(|p| {
                p.type_head
                    .as_deref()
                    .is_some_and(|h| HASH_TYPES.contains(&h))
            })
            .map(|p| p.name.clone())
            .collect();
        for b in let_bindings(tokens, open, close) {
            let ty_head =
                b.ty.and_then(|(s, e)| crate::parse::type_head(&tokens[s..e]));
            let hash_typed = ty_head.as_deref().is_some_and(|h| HASH_TYPES.contains(&h));
            let hash_init = b.init.is_some_and(|(s, e)| {
                tokens[s..e].iter().any(|t| {
                    t.kind == TokenKind::Ident
                        && (HASH_TYPES.contains(&t.text.as_str()) || locals.contains(&t.text))
                })
            });
            // An ascribed non-hash type wins over a hash-mentioning
            // initializer: `let v: Vec<_> = set_like_source…` is the
            // *consumer's* type.
            let tracked = hash_typed || (ty_head.is_none() && hash_init);
            if tracked {
                locals.insert(b.name);
            }
        }

        let flag = |findings: &mut Vec<Finding>, line: u32, name: &str, how: &str| {
            findings.push(Finding {
                rule: "L10",
                line,
                message: format!(
                    "{how} over hash-ordered `{name}` — iteration order is \
                     nondeterministic and breaks bit-parity; use \
                     BTreeMap/BTreeSet or collect-and-sort first"
                ),
            });
        };

        let mut i = open + 1;
        while i < close {
            let t = &tokens[i];
            // Method-chain iteration: `recv.iter()`, `self.field.keys()`.
            if t.kind == TokenKind::Ident
                && ITER_METHODS.contains(&t.text.as_str())
                && is_punct(tokens.get(i + 1), '(')
                && is_punct(tokens.get(i.wrapping_sub(1)), '.')
                && i >= 2
            {
                let recv = &tokens[i - 2];
                if recv.kind == TokenKind::Ident {
                    let is_field_access = is_punct(tokens.get(i.wrapping_sub(3)), '.');
                    let hit = if is_field_access {
                        fields.contains(recv.text.as_str())
                    } else {
                        locals.contains(&recv.text)
                    };
                    if hit {
                        flag(&mut findings, t.line, &recv.text, &format!(".{}()", t.text));
                    }
                }
            }
            // Bare for-loop iteration: `for x in &map {`.
            if t.kind == TokenKind::Ident && t.text == "for" {
                if let Some((line, name)) =
                    for_loop_hash_receiver(tokens, i, close, &locals, &fields)
                {
                    flag(&mut findings, line, &name, "`for` loop");
                }
            }
            i += 1;
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// For a `for` at index `i`, returns the receiver when the loop iterates
/// a tracked hash collection *directly* (`for x in &map {`). Method
/// chains are left to the method-call check.
fn for_loop_hash_receiver(
    tokens: &[Token],
    i: usize,
    close: usize,
    locals: &BTreeSet<String>,
    fields: &BTreeSet<&str>,
) -> Option<(u32, String)> {
    // Find the `in` at depth 0 before the loop body's `{`.
    let mut depth = 0usize;
    let mut j = i + 1;
    let in_pos = loop {
        if j >= close {
            return None;
        }
        match tokens[j].kind {
            TokenKind::Punct('(' | '[') => depth += 1,
            TokenKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('{') if depth == 0 => return None, // `impl … for T {`
            TokenKind::Ident if depth == 0 && tokens[j].text == "in" => break j,
            _ => {}
        }
        j += 1;
    };
    // Loop expression: `in` up to the body `{` at depth 0.
    let mut k = in_pos + 1;
    // Skip leading `&`, `&mut`, `*`.
    while is_punct(tokens.get(k), '&')
        || is_punct(tokens.get(k), '*')
        || is_kw(tokens.get(k), "mut")
    {
        k += 1;
    }
    // Accept only a dotted ident chain ending at the body brace.
    let mut chain_len = 0usize;
    let recv = loop {
        let t = tokens.get(k)?;
        if t.kind != TokenKind::Ident {
            return None;
        }
        chain_len += 1;
        k += 1;
        if is_punct(tokens.get(k), '{') {
            break t;
        }
        if is_punct(tokens.get(k), '.') {
            k += 1;
            continue;
        }
        return None;
    };
    let hit = if chain_len == 1 {
        locals.contains(&recv.text)
    } else {
        fields.contains(recv.text.as_str())
    };
    hit.then(|| (tokens[i].line, recv.text.clone()))
}

// ---------------------------------------------------------------------
// L9 — secrecy-taint
// ---------------------------------------------------------------------

/// Secrecy-taint over one file. `extra_sinks` holds the sink-like
/// function summaries derived by [`sink_summaries`] (empty for
/// single-file runs without the crate-level pass).
pub fn l9(
    tokens: &[Token],
    file: &ParsedFile,
    cfg: &LintConfig,
    extra_sinks: &SinkSummaries,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &file.fns {
        for hit in fn_taint_hits(tokens, f, cfg, extra_sinks, true, &BTreeSet::new()) {
            findings.push(Finding {
                rule: "L9",
                line: hit.line,
                message: format!(
                    "secret value `{}` reaches serialization sink `{}` — \
                     only committed/masked forms may be serialized; route \
                     through an approved sanitizer (see lint.toml [l9]) ",
                    hit.offender, hit.sink
                )
                .trim_end()
                .to_owned(),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Crate-level sink summarization: the fixpoint of "a parameter that
/// flows into a (possibly derived) sink makes its function sink-like at
/// that position". Call with every in-scope file's parse results; the
/// returned map feeds [`l9`] as `extra_sinks`. Functions sharing both a
/// name and an arity merge conservatively (union of positions);
/// different arities get separate summaries.
pub fn sink_summaries(files: &[(ParsedFile, Vec<Token>)], cfg: &LintConfig) -> SinkSummaries {
    let mut derived = SinkSummaries::new();
    // The workspace call graph is shallow; 4 rounds covers chains far
    // deeper than any real code here while bounding the loop.
    for _ in 0..4 {
        let mut changed = false;
        for (file, tokens) in files {
            for f in &file.fns {
                if f.body.is_none() || cfg.l9_sink_calls.contains(&f.name) {
                    continue;
                }
                let arity = f.params.len();
                let has_self = f.params.first().is_some_and(|p| p.name == "self");
                for (pi, p) in f.params.iter().enumerate() {
                    if derived.get(&f.name).is_some_and(|v| {
                        v.iter().any(|s| s.arity == arity && s.params.contains(&pi))
                    }) {
                        continue;
                    }
                    let seed = BTreeSet::from([p.name.clone()]);
                    let hits = fn_taint_hits(tokens, f, cfg, &derived, false, &seed);
                    if !hits.is_empty() {
                        let entry = derived.entry(f.name.clone()).or_default();
                        if !entry.iter().any(|s| s.arity == arity) {
                            entry.push(SinkSummary {
                                arity,
                                params: BTreeSet::new(),
                                has_self,
                            });
                        }
                        let s = entry
                            .iter_mut()
                            .find(|s| s.arity == arity)
                            .expect("just pushed");
                        s.params.insert(pi);
                        s.has_self |= has_self;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    derived
}

/// One taint hit inside a function body.
struct TaintHit {
    line: u32,
    sink: String,
    offender: String,
}

/// The shared dataflow pass. With `use_sources` the taint seed comes
/// from the configured source sets (the real L9 rule); without it the
/// seed is `extra_seed` alone (summary mode: "does this parameter reach
/// a sink?").
fn fn_taint_hits(
    tokens: &[Token],
    f: &FnItem,
    cfg: &LintConfig,
    extra_sinks: &SinkSummaries,
    use_sources: bool,
    extra_seed: &BTreeSet<String>,
) -> Vec<TaintHit> {
    let Some((open, close)) = f.body else {
        return Vec::new();
    };
    let mut tainted: BTreeSet<String> = extra_seed.clone();
    if use_sources {
        for p in &f.params {
            let by_name = cfg.l9_source_idents.contains(&p.name);
            let by_type = p
                .type_head
                .as_deref()
                .is_some_and(|h| cfg.l9_source_types.iter().any(|s| s == h));
            if by_name || by_type {
                tainted.insert(p.name.clone());
            }
        }
    }

    let mentions_taint = |range: &[Token], tainted: &BTreeSet<String>| -> Option<String> {
        for (i, t) in range.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            if tainted.contains(&t.text) {
                return Some(t.text.clone());
            }
            if use_sources {
                if cfg.l9_source_idents.contains(&t.text) || cfg.l9_source_types.contains(&t.text) {
                    return Some(t.text.clone());
                }
                if cfg.l9_source_calls.contains(&t.text) && is_punct(range.get(i + 1), '(') {
                    return Some(format!("{}()", t.text));
                }
            }
        }
        None
    };
    let has_sanitizer = |range: &[Token]| -> bool {
        range.iter().enumerate().any(|(i, t)| {
            t.kind == TokenKind::Ident
                && cfg.l9_sanitizers.contains(&t.text)
                && is_punct(range.get(i + 1), '(')
        })
    };

    // Propagate taint through let bindings, in source order.
    for b in let_bindings(tokens, open, close) {
        let Some((s, e)) = b.init else { continue };
        let init = &tokens[s..e];
        if has_sanitizer(init) {
            continue;
        }
        if mentions_taint(init, &tainted).is_some() {
            tainted.insert(b.name);
        }
    }

    // Scan for sink sites.
    let mut hits = Vec::new();
    let receiver_taint = |i: usize, tainted: &BTreeSet<String>| -> Option<String> {
        // The receiver chain before a `.sink(…)` call is payload too.
        let mut k = i;
        while k >= 2 && is_punct(tokens.get(k - 1), '.') {
            let r = &tokens[k - 2];
            if r.kind != TokenKind::Ident {
                break;
            }
            if mentions_taint(std::slice::from_ref(r), tainted).is_some() {
                return Some(r.text.clone());
            }
            k -= 2;
        }
        None
    };
    let mut i = open + 1;
    while i < close {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let is_call =
            is_punct(tokens.get(i + 1), '(') && !is_kw(tokens.get(i.wrapping_sub(1)), "fn");
        // Declared sink call: the whole argument list (and the receiver)
        // is payload — `w.encode(secret)`, `secret.encode(w)`.
        if is_call && cfg.l9_sink_calls.contains(&t.text) {
            if let Some(close_paren) = matching(tokens, i + 1, '(', ')') {
                let args = &tokens[i + 2..close_paren];
                let mut offender = None;
                if !has_sanitizer(args) {
                    offender = mentions_taint(args, &tainted);
                }
                if offender.is_none() {
                    offender = receiver_taint(i, &tainted);
                }
                if let Some(name) = offender {
                    hits.push(TaintHit {
                        line: t.line,
                        sink: format!("{}()", t.text),
                        offender: name,
                    });
                }
                i = close_paren + 1;
                continue;
            }
        }
        // Derived sink call: only the argument positions that actually
        // flow to a sink inside the callee are payload. Candidates are
        // matched by argument count so same-name functions of different
        // arity never cross-contaminate.
        if is_call {
            if let Some(summaries) = extra_sinks.get(&t.text) {
                if let Some(close_paren) = matching(tokens, i + 1, '(', ')') {
                    let is_method_call = is_punct(tokens.get(i.wrapping_sub(1)), '.');
                    let segs = split_top_commas(tokens, i + 2, close_paren);
                    let mut offender = None;
                    for summary in summaries {
                        let offset = usize::from(is_method_call && summary.has_self);
                        if summary.arity != segs.len() + offset {
                            continue;
                        }
                        for (si, (s, e)) in segs.iter().enumerate() {
                            if !summary.params.contains(&(si + offset)) {
                                continue;
                            }
                            let seg = &tokens[*s..*e];
                            if has_sanitizer(seg) {
                                continue;
                            }
                            if let Some(name) = mentions_taint(seg, &tainted) {
                                offender = Some(name);
                                break;
                            }
                        }
                        if offender.is_none() && is_method_call && summary.params.contains(&0) {
                            offender = receiver_taint(i, &tainted);
                        }
                        if offender.is_some() {
                            break;
                        }
                    }
                    if let Some(name) = offender {
                        hits.push(TaintHit {
                            line: t.line,
                            sink: format!("{}()", t.text),
                            offender: name,
                        });
                    }
                    i = close_paren + 1;
                    continue;
                }
            }
        }
        // Sink constructor: `Body::Shares { … }`, `Key { … }`.
        if cfg.l9_sink_ctors.contains(&t.text) {
            let (oc, cc) = if is_punct(tokens.get(i + 1), '{') {
                ('{', '}')
            } else if is_punct(tokens.get(i + 1), '(') {
                ('(', ')')
            } else {
                i += 1;
                continue;
            };
            if let Some(group_close) = matching(tokens, i + 1, oc, cc) {
                if ctor_is_expression(tokens, i, group_close) {
                    let body = &tokens[i + 2..group_close];
                    if !has_sanitizer(body) {
                        if let Some(name) = mentions_taint(body, &tainted) {
                            hits.push(TaintHit {
                                line: t.line,
                                sink: t.text.clone(),
                                offender: name,
                            });
                        }
                    }
                }
                i = if oc == '{' { group_close + 1 } else { i + 1 };
                continue;
            }
        }
        i += 1;
    }
    hits
}

/// Splits `tokens[start..end]` at top-level commas, returning the
/// `(start, end)` range of each argument segment.
fn split_top_commas(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut seg_start = start;
    for (i, tok) in tokens.iter().enumerate().take(end).skip(start) {
        match tok.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
            TokenKind::Punct(',') if depth == 0 => {
                out.push((seg_start, i));
                seg_start = i + 1;
            }
            _ => {}
        }
    }
    if seg_start < end {
        out.push((seg_start, end));
    }
    out
}

/// True when the sink-constructor candidate at `i` is an *expression*
/// (builds a value) rather than a pattern, a definition, or a return
/// type followed by a function body.
fn ctor_is_expression(tokens: &[Token], i: usize, group_close: usize) -> bool {
    // Walk back over the `Path::` prefix.
    let mut p = i;
    while p >= 3
        && is_punct(tokens.get(p - 1), ':')
        && is_punct(tokens.get(p - 2), ':')
        && tokens.get(p - 3).map(|t| t.kind) == Some(TokenKind::Ident)
    {
        p -= 3;
    }
    if let Some(prev) = tokens.get(p.wrapping_sub(1)) {
        if p >= 1 {
            // Definitions and impl headers.
            if prev.kind == TokenKind::Ident
                && ["struct", "enum", "trait", "impl", "for", "fn", "mod", "let"]
                    .contains(&prev.text.as_str())
            {
                return false;
            }
            // Return-type position: `-> Key { body }`.
            if prev.kind == TokenKind::Punct('>') && is_punct(tokens.get(p.wrapping_sub(2)), '-') {
                return false;
            }
        }
    }
    // Pattern positions: `Body::X { .. } =>`, `… } = expr`, or-patterns
    // and match guards.
    match tokens.get(group_close + 1) {
        Some(t) if t.kind == TokenKind::Punct('=') || t.kind == TokenKind::Punct('|') => false,
        Some(t) if t.kind == TokenKind::Ident && t.text == "if" => false,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;
    use crate::rules::strip_test_regions;

    fn run_l10(src: &str) -> Vec<Finding> {
        let (tokens, _) = lex(src);
        let tokens = strip_test_regions(&tokens);
        let file = parse(&tokens);
        l10(&tokens, &file)
    }

    fn run_l9(src: &str) -> Vec<Finding> {
        let (tokens, _) = lex(src);
        let tokens = strip_test_regions(&tokens);
        let file = parse(&tokens);
        l9(
            &tokens,
            &file,
            LintConfig::embedded(),
            &SinkSummaries::new(),
        )
    }

    #[test]
    fn l10_flags_iteration_not_membership() {
        let src = "fn f() { let mut m: HashMap<u64, usize> = HashMap::new(); \
                   m.insert(1, 2); if m.contains_key(&1) {} \
                   let top = m.into_iter().max_by_key(|&(_, c)| c); }";
        let out = run_l10(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`m`"));
    }

    #[test]
    fn l10_flags_for_loops_and_field_iteration() {
        let src = "struct Plan { links: HashSet<(usize, usize)> }\n\
                   impl Plan { fn a(&self) { for l in &self.links { use_it(l); } }\n\
                   fn b(&self) { let v: Vec<_> = self.links.iter().collect(); } }";
        let out = run_l10(src);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn l10_ignores_vec_iteration_collected_into_a_set() {
        // `.iter()` belongs to the Vec; the set is only constructed.
        let src = "fn f(ids: &[String]) { \
                   let set: HashSet<&String> = ids.iter().collect(); \
                   if set.len() < ids.len() { panic!(); } }";
        assert!(run_l10(src).is_empty());
    }

    #[test]
    fn l10_ignores_range_loops_and_untracked_receivers() {
        let src = "fn f(m: &HashMap<u64, u64>, v: &[u64]) { \
                   for i in 0..m.len() { touch(i); } \
                   for x in v.iter() { touch(x); } }";
        assert!(run_l10(src).is_empty());
    }

    #[test]
    fn l9_flags_raw_secret_reaching_a_sink_ctor() {
        let src = "fn leak(bid: u64, task: usize) -> Body { \
                   Body::Disclose { task, f_values: vec![bid] } }";
        let out = run_l9(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`bid`"));
    }

    #[test]
    fn l9_taint_propagates_through_lets_and_stops_at_sanitizers() {
        let leak = "fn f(bid: u64) { let doubled = bid + bid; \
                    let msg = Body::Disclose { task: 0, f_values: vec![doubled] }; }";
        assert_eq!(run_l9(leak).len(), 1);
        let safe = "fn f(polys: &BidPolynomials, zq: &Zq, alpha: u64) { \
                    let bundle = polys.share_for(zq, alpha); \
                    let msg = Body::Shares { task: 0, bundle }; }";
        assert!(run_l9(safe).is_empty(), "{:?}", run_l9(safe));
    }

    #[test]
    fn l9_match_patterns_are_not_constructions() {
        let src = "fn g(b: &Body, bid: u64) -> u64 { match b { \
                   Body::Disclose { task, f_values } => bid, _ => 0 } }";
        assert!(run_l9(src).is_empty(), "{:?}", run_l9(src));
    }

    #[test]
    fn l9_sink_summaries_reach_one_call_deep() {
        let src = "fn emit(v: u64) { let b = Body::Disclose { task: 0, f_values: vec![v] }; }\n\
                   fn caller(bid: u64) { emit(bid); }";
        let (tokens, _) = lex(src);
        let tokens = strip_test_regions(&tokens);
        let file = parse(&tokens);
        let cfg = LintConfig::embedded();
        let derived = sink_summaries(std::slice::from_ref(&(file.clone(), tokens.clone())), cfg);
        assert!(derived.contains_key("emit"), "{derived:?}");
        assert!(derived["emit"][0].params.contains(&0));
        let out = l9(&tokens, &file, cfg, &derived);
        // One hit inside emit (v is not source-named, so only the caller
        // leaks) — the call site hands the raw bid to a sink-like fn.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("emit"));
    }

    #[test]
    fn l9_derived_sinks_are_position_sensitive() {
        // `serialize` leaks only its second parameter; passing the bid
        // in the first position must not flag, in the second must.
        let src = "fn serialize(label: u64, v: u64) { \
                       let b = Body::Disclose { task: 0, f_values: vec![v] }; }\n\
                   fn ok(bid: u64) { serialize(7, 0); let n = 3; serialize(bid, n); }";
        let (tokens, _) = lex(src);
        let tokens = strip_test_regions(&tokens);
        let file = parse(&tokens);
        let cfg = LintConfig::embedded();
        let derived = sink_summaries(std::slice::from_ref(&(file.clone(), tokens.clone())), cfg);
        assert_eq!(
            derived["serialize"][0].params,
            BTreeSet::from([1usize]),
            "{derived:?}"
        );
        assert!(l9(&tokens, &file, cfg, &derived).is_empty());
        let leak = src.replace("serialize(bid, n)", "serialize(n, bid)");
        let (tokens, _) = lex(&leak);
        let tokens = strip_test_regions(&tokens);
        let file = parse(&tokens);
        let out = l9(&tokens, &file, cfg, &derived);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn l9_same_name_different_arity_summaries_do_not_merge() {
        // Two unrelated methods named `deliver` (think DmwRunner vs
        // BatchRunner): the 1-arg variant sinks its argument, the 2-arg
        // variant is clean in its first position. A call with two
        // arguments must match only the 2-arg summary.
        let src = "fn deliver(v: u64) { let b = Body::Disclose { task: 0, f_values: vec![v] }; }\n\
                   fn deliver(x: u64, out: &mut Vec<u64>) { \
                       let b = Body::Disclose { task: 0, f_values: vec![out.len() as u64] }; }\n\
                   fn ok(bid: u64) { let mut sink = Vec::new(); deliver(bid, &mut sink); }\n\
                   fn bad(bid: u64) { deliver(bid); }";
        let (tokens, _) = lex(src);
        let tokens = strip_test_regions(&tokens);
        let file = parse(&tokens);
        let cfg = LintConfig::embedded();
        let derived = sink_summaries(std::slice::from_ref(&(file.clone(), tokens.clone())), cfg);
        let out = l9(&tokens, &file, cfg, &derived);
        // Exactly one hit, in `bad` — `ok`'s 2-arg call matches the
        // clean-first-position summary only.
        assert_eq!(out.len(), 1, "{out:?}");
        let bad_line = 4;
        assert_eq!(out[0].line, bad_line, "{out:?}");
    }
}
