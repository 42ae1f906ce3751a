//! Fixture tests: each rule catches its seeded violation file, the clean
//! fixture produces nothing, and no comment waives a finding.
//!
//! The fixtures live in `crates/lint/fixtures/` (a directory the
//! workspace walker skips). The lexical dmw-lint rules (L2, L6, L8) lint
//! them via [`dmw_lint::lint_source`] under synthetic in-scope paths, so
//! these tests pin both the rule logic and the path scoping; L11 runs
//! over the real phase machine and spec. The rules
//! clippy enforces (L1, L3, L4, L5, L7) compile their fixtures with
//! `clippy-driver` at the lint levels set in source, so these tests pin
//! the exact `(line, lint)` set each mapping reports.

#[path = "support/clippy.rs"]
mod clippy_probe;

use clippy_probe::{
    bench_conf, clippy, levels_in_source, root_conf, sorted, L1, L3, L5, L7, WORKSPACE_L4,
};
use dmw_lint::{lint_source, Finding};

fn lint_fixture(synthetic_path: &str, source: &str) -> Vec<Finding> {
    lint_source(synthetic_path, source)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

/// Expected `(line, lint)` pairs, in the order `clippy` sorts.
fn at(pairs: &[(u32, &str)]) -> Vec<(u32, String)> {
    pairs
        .iter()
        .map(|&(l, lint)| (l, lint.to_owned()))
        .collect()
}

#[test]
fn l1_fixture_catches_every_panic_shape() {
    let found = clippy(include_str!("../fixtures/l1_panic.rs"), L1, &root_conf());
    assert_eq!(
        found,
        at(&[
            (5, "unwrap_used"),
            (6, "expect_used"),
            (8, "panic"),
            (11, "unreachable"),
            (13, "indexing_slicing"),
            (17, "todo"),
            (21, "unimplemented"),
        ]),
        "every shape outside the test module, none inside it"
    );
}

#[test]
fn l2_fixture_catches_raw_field_arithmetic() {
    let findings = lint_fixture(
        "crates/crypto/src/fixture.rs",
        include_str!("../fixtures/l2_arith.rs"),
    );
    assert_eq!(
        rules_of(&findings),
        vec!["L2"; 4],
        "% + raw pow + wrapping_mul + op-adjacent field call: {findings:?}"
    );
}

#[test]
fn l3_fixture_catches_wildcard_arm() {
    let found = clippy(include_str!("../fixtures/l3_wildcard.rs"), L3, &root_conf());
    assert_eq!(
        found,
        at(&[
            (9, "wildcard_enum_match_arm"),
            (18, "match_wildcard_for_single_variants"),
            (26, "wildcard_enum_match_arm"),
        ]),
        "`_` over many variants, `_` over one, a binding catch-all; \
         exhaustive arms and `_` over a byte stay legal"
    );
}

#[test]
fn l4_fixture_catches_ambient_entropy() {
    // `SystemTime` is rejected everywhere: at the deterministic crates'
    // `forbid` under the root clippy.toml, and at the workspace `deny`
    // under the bench harness's clippy.toml.
    let source = include_str!("../fixtures/l4_entropy.rs");
    let expected = at(&[
        (6, "disallowed_types"),
        (9, "disallowed_types"),
        (10, "disallowed_types"),
    ]);
    assert_eq!(clippy(source, L7, &root_conf()), expected);
    assert_eq!(clippy(source, WORKSPACE_L4, &bench_conf()), expected);
}

/// The crate roots whose lint levels the docs list, by crate directory.
const CRATE_ROOTS: &[(&str, &str)] = &[
    ("core", include_str!("../../core/src/lib.rs")),
    ("simnet", include_str!("../../simnet/src/lib.rs")),
    ("crypto", include_str!("../../crypto/src/lib.rs")),
    ("obs", include_str!("../../obs/src/lib.rs")),
    ("modmath", include_str!("../../modmath/src/lib.rs")),
    ("bench", include_str!("../../bench/src/lib.rs")),
];

fn crate_root(name: &str) -> &'static str {
    CRATE_ROOTS
        .iter()
        .find(|(dir, _)| *dir == name)
        .map(|(_, source)| *source)
        .unwrap_or_else(|| panic!("no crate root for {name}"))
}

#[test]
fn l7_fixture_catches_wall_clock_in_deterministic_crates_only() {
    // The deterministic crates forbid `disallowed_types` at their roots;
    // the bench harness stays at the workspace `deny`.
    for name in ["core", "simnet", "crypto", "obs"] {
        assert!(
            levels_in_source(crate_root(name), None).contains(&L7[0].to_owned()),
            "{name} must forbid the wall clock at its crate root"
        );
    }
    assert!(levels_in_source(crate_root("bench"), None).is_empty());
    let source = include_str!("../fixtures/l7_wallclock.rs");
    assert_eq!(
        clippy(source, L7, &root_conf()),
        at(&[
            (6, "disallowed_types"),
            (9, "disallowed_types"),
            (10, "disallowed_types"),
        ]),
        "the `use`, `Instant::now` and `SystemTime::now`"
    );
    // The bench harness times wall clock by design: its clippy.toml
    // allows `Instant`, while `SystemTime` stays rejected.
    assert_eq!(
        clippy(source, WORKSPACE_L4, &bench_conf()),
        at(&[(6, "disallowed_types"), (10, "disallowed_types")])
    );
}

#[test]
fn l7_allows_are_rejected_even_with_justification() {
    // `forbid` makes the waiver itself a compile error (E0453).
    let source = "#[allow(clippy::disallowed_types, reason = \"very good reason\")]\n\
                  pub fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    let found = clippy(source, L7, &root_conf());
    assert!(found.contains(&(1, "E0453".to_owned())), "{found:?}");
}

#[test]
fn l5_fixture_catches_narrowing_casts_only() {
    let found = clippy(include_str!("../fixtures/l5_cast.rs"), L5, &root_conf());
    assert_eq!(
        found,
        at(&[
            (5, "cast_possible_truncation"),
            (6, "cast_possible_truncation"),
            (7, "cast_possible_wrap"),
            (9, "cast_possible_truncation"),
            (10, "cast_sign_loss"),
        ]),
        "u64 as u32 / u64 as usize / u32 as i32 / u128 as u64 / i32 as u32; \
         widening casts stay legal"
    );
}

#[test]
fn lint_levels_set_in_source_are_the_probed_levels() {
    // The fixture tests above compile at the probe's levels; this pins
    // those levels to the attributes in source, so dropping one from a
    // `pub mod` line or a crate root fails here.
    let core = crate_root("core");
    let modules: Vec<&str> = core
        .lines()
        .filter_map(|line| line.strip_prefix("pub mod ")?.strip_suffix(';'))
        .collect();
    assert!(modules.contains(&"messages"), "{modules:?}");
    for module in modules {
        let expected = match module {
            "agent" | "payment" | "phases" => sorted(&[L1]),
            "codec" | "runner" => sorted(&[L1, L3]),
            _ => Vec::new(),
        };
        assert_eq!(
            levels_in_source(core, Some(module)),
            expected,
            "`pub mod {module}` in crates/core/src/lib.rs"
        );
    }
    let modmath_l1 = &[
        "-Dclippy::unwrap_used",
        "-Dclippy::expect_used",
        "-Dclippy::indexing_slicing",
    ][..];
    for (name, expected) in [
        ("core", sorted(&[L7])),
        ("simnet", sorted(&[L7])),
        ("obs", sorted(&[L7])),
        ("crypto", sorted(&[L1, L5, L7])),
        ("modmath", sorted(&[modmath_l1, L5])),
        ("bench", Vec::new()),
    ] {
        assert_eq!(
            levels_in_source(crate_root(name), None),
            expected,
            "crate root of {name}"
        );
    }
}

#[test]
fn l6_fixture_catches_round_dispatch_in_phase_modules() {
    let source = include_str!("../fixtures/l6_round.rs");
    let findings = lint_fixture("crates/core/src/phases/fixture.rs", source);
    assert_eq!(
        rules_of(&findings),
        vec!["L6"; 3],
        "match round + round >= 4 + 3 == round: {findings:?}"
    );
    // The same source is legal in the scheduler, where round numbers are
    // the scheduler's own business.
    assert!(
        lint_fixture("crates/core/src/runner.rs", source).is_empty(),
        "L6 must not police the scheduler"
    );
}

#[test]
fn l8_fixture_catches_naked_retry_loops_in_reliability_modules() {
    let source = include_str!("../fixtures/l8_retry.rs");
    for path in [
        "crates/core/src/reliable.rs",
        "crates/core/src/agent.rs",
        "crates/core/src/phases/fixture.rs",
    ] {
        let findings = lint_fixture(path, source);
        assert_eq!(
            findings.iter().filter(|f| f.rule == "L8").count(),
            5,
            "{path}: bare loop + while + retry-bookkeeping for + nack \
             begging while + suppressor for; the budgeted sweeps stay \
             clean: {findings:?}"
        );
    }
    // The scheduler and the transports drive no resends themselves:
    // L8 is scoped out there.
    assert!(
        lint_fixture("crates/core/src/runner.rs", source).is_empty(),
        "L8 must not police the scheduler"
    );
}

#[test]
fn l8_allows_are_rejected_even_with_justification() {
    // No rule is waivable: an allow comment is just a comment.
    let source = "// dmw-lint: allow(L8): very good reason\nloop { resend(m); }\n";
    let findings = lint_fixture("crates/core/src/reliable.rs", source);
    assert_eq!(
        rules_of(&findings),
        ["L8"],
        "the violation survives: {findings:?}"
    );
}

#[test]
fn clean_fixture_is_clean_under_the_strictest_scope() {
    let source = include_str!("../fixtures/clean.rs");
    let findings = lint_fixture("crates/crypto/src/fixture.rs", source);
    assert!(findings.is_empty(), "{findings:?}");
    let levels = [L1, L3, L5, L7].concat();
    let found = clippy(source, &levels, &root_conf());
    assert!(found.is_empty(), "{found:?}");
}

// ---------------------------------------------------------------------
// L11: the phase graph against its spec.
// ---------------------------------------------------------------------

#[test]
fn l11_real_spec_matches_the_real_phase_machine() {
    let out = dmw_lint::phase_graph::check_sources(
        "docs/phase_graph.toml",
        Some(include_str!("../../../docs/phase_graph.toml")),
        &[(
            "crates/core/src/phases/mod.rs".to_owned(),
            include_str!("../../core/src/phases/mod.rs").to_owned(),
        )],
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn l11_denies_an_undeclared_transition_injected_into_the_real_code() {
    let drifted = include_str!("../../core/src/phases/mod.rs").replace(
        "Phase::SecondPrice => Phase::Claimed,",
        "Phase::SecondPrice => Phase::Bidding,",
    );
    assert_ne!(drifted, include_str!("../../core/src/phases/mod.rs"));
    let out = dmw_lint::phase_graph::check_sources(
        "docs/phase_graph.toml",
        Some(include_str!("../../../docs/phase_graph.toml")),
        &[("crates/core/src/phases/mod.rs".to_owned(), drifted)],
    );
    assert!(
        out.iter()
            .any(|f| f.finding.message.contains("undeclared transition")),
        "{out:?}"
    );
    assert!(
        out.iter().any(|f| f.finding.message.contains("spec drift")),
        "the removed edge is reported from the spec side too: {out:?}"
    );
}

#[test]
fn l11_allows_are_rejected_even_with_justification() {
    // The spec file is L11's only escape hatch: an allow comment above
    // an undeclared transition changes nothing.
    let real = include_str!("../../core/src/phases/mod.rs");
    let drifted = real.replace(
        "Phase::SecondPrice => Phase::Claimed,",
        "// dmw-lint: allow(L11): very good reason\nPhase::SecondPrice => Phase::Bidding,",
    );
    assert_ne!(drifted, real);
    let out = dmw_lint::phase_graph::check_sources(
        "docs/phase_graph.toml",
        Some(include_str!("../../../docs/phase_graph.toml")),
        &[("crates/core/src/phases/mod.rs".to_owned(), drifted)],
    );
    assert!(
        out.iter()
            .any(|f| f.finding.message.contains("undeclared transition")),
        "{out:?}"
    );
}

#[test]
fn l2_and_l3_allows_are_rejected_even_with_justification() {
    let source = "// dmw-lint: allow(L2): very good reason\nlet x = a % b;\n";
    let findings = lint_fixture("crates/crypto/src/fixture.rs", source);
    assert_eq!(
        rules_of(&findings),
        ["L2"],
        "the violation survives: {findings:?}"
    );
    // L3 is `forbid` on the codec and the runner: an `#[allow]` is E0453.
    let source = "pub enum E { A, B, C }\n\
                  #[allow(clippy::wildcard_enum_match_arm, reason = \"very good reason\")]\n\
                  pub fn f(e: E) -> u8 { match e { E::A => 1, _ => 0 } }\n";
    let found = clippy(source, L3, &root_conf());
    assert!(found.contains(&(2, "E0453".to_owned())), "{found:?}");
}
