//! A minimal TOML subset reader for the lint's own config files.
//!
//! The build environment is offline (no `toml` crate), and the file this
//! lint reads — `docs/phase_graph.toml` — needs only a tiny grammar:
//! `[table]` headers, `key = "string"` and `key = ["a", "b", …]` entries
//! (arrays may span lines), comments and blanks. Anything outside that subset is a hard parse error, not a
//! silent skip: a config typo must fail the lint run, never relax it.

use std::collections::BTreeMap;

/// One parsed file: table name → key → value. Top-level keys live under
/// the table name `""`.
#[derive(Debug, Clone, Default)]
pub struct TomlDoc {
    tables: BTreeMap<String, BTreeMap<String, Value>>,
}

/// A value: the subset has only strings and string arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An array of quoted strings.
    List(Vec<String>),
}

impl TomlDoc {
    /// The string value at `table.key`, if present and a string.
    pub fn str(&self, table: &str, key: &str) -> Option<&str> {
        match self.tables.get(table)?.get(key)? {
            Value::Str(s) => Some(s),
            Value::List(_) => None,
        }
    }

    /// The array value at `table.key`, if present and an array.
    pub fn list(&self, table: &str, key: &str) -> Option<&[String]> {
        match self.tables.get(table)?.get(key)? {
            Value::List(v) => Some(v),
            Value::Str(_) => None,
        }
    }

    /// True when the table exists (even if empty).
    pub fn has_table(&self, table: &str) -> bool {
        self.tables.contains_key(table)
    }
}

/// Parses `src`; on failure returns a message with a 1-based line number.
pub fn parse(src: &str) -> Result<TomlDoc, String> {
    let mut doc = TomlDoc::default();
    doc.tables.entry(String::new()).or_default();
    let mut table = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unclosed table header"))?;
            if name.starts_with('[') {
                return Err(format!(
                    "line {lineno}: array-of-tables is outside the supported subset"
                ));
            }
            table = name.trim().to_owned();
            doc.tables.entry(table.clone()).or_default();
            continue;
        }
        let (key, value_src) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let key = key.trim().to_owned();
        let mut value_src = value_src.trim().to_owned();
        // Multi-line array: keep consuming lines until the bracket closes.
        if value_src.starts_with('[') {
            while !closes_bracket(&value_src) {
                let (_, next) = lines
                    .next()
                    .ok_or_else(|| format!("line {lineno}: unclosed array"))?;
                value_src.push(' ');
                value_src.push_str(strip_comment(next).trim());
            }
        }
        let value = parse_value(&value_src).map_err(|e| format!("line {lineno}: {e}"))?;
        doc.tables
            .entry(table.clone())
            .or_default()
            .insert(key, value);
    }
    Ok(doc)
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// True once every `[` in `src` outside strings has a matching `]`.
fn closes_bracket(src: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in src.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(src: &str) -> Result<Value, String> {
    if let Some(inner) = src.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unclosed array".to_owned())?;
        let mut items = Vec::new();
        for part in split_top_commas(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                Value::List(_) => return Err("nested arrays are unsupported".to_owned()),
            }
        }
        return Ok(Value::List(items));
    }
    let s = src
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("unsupported value `{src}` — only strings and string arrays"))?;
    if s.contains('"') || s.contains('\\') {
        return Err("escapes inside strings are unsupported".to_owned());
    }
    Ok(Value::Str(s.to_owned()))
}

/// Splits on commas outside quotes.
fn split_top_commas(src: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in src.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&src[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_strings_and_arrays_parse() {
        let doc = parse(
            "top = \"a\"\n\
             [spec]\n\
             # comment\n\
             scope = [\"crates/core/src/\", \"crates/crypto/src/\"]\n\
             name = \"graph\" # trailing\n",
        )
        .unwrap();
        assert_eq!(doc.str("", "top"), Some("a"));
        assert_eq!(doc.str("spec", "name"), Some("graph"));
        assert_eq!(doc.list("spec", "scope").unwrap().len(), 2);
        assert!(doc.has_table("spec"));
        assert!(!doc.has_table("l12"));
    }

    #[test]
    fn multiline_arrays_with_trailing_commas_parse() {
        let doc = parse(
            "edges = [\n\
             \"Bidding -> Commitments\",   # first hop\n\
             \"Commitments -> Resolution\",\n\
             ]\n",
        )
        .unwrap();
        assert_eq!(doc.list("", "edges").unwrap().len(), 2);
        assert_eq!(doc.list("", "edges").unwrap()[0], "Bidding -> Commitments");
    }

    #[test]
    fn out_of_subset_constructs_are_hard_errors() {
        assert!(parse("x = 3").is_err());
        assert!(parse("[[edge]]\nfrom = \"A\"").is_err());
        assert!(parse("x = [\"a\"").is_err());
        assert!(parse("[t\nx = \"a\"").is_err());
        assert!(parse("just a line").is_err());
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let doc = parse("x = \"a#b\"").unwrap();
        assert_eq!(doc.str("", "x"), Some("a#b"));
    }
}
