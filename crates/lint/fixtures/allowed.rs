// Fixture: justified allowlist escapes for the waivable rules (L9, L10).
// Never compiled; scanned by tests/fixtures.rs as if it lived at
// crates/crypto/src/fixture.rs.

fn with_escapes(seen: &HashSet<u64>) -> usize {
    // dmw-lint: allow(L10): only the count is observed, never the order
    seen.iter().count()
}

fn trailing(bid: u64, task: usize) -> Body {
    Body::Disclose { task, f_values: vec![bid] } // dmw-lint: allow(L9): fixture demonstrating a trailing allow
}
