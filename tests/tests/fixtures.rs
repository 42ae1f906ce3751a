//! Fixture tests: each clippy-enforced rule (L1, L2, L3, L4, L5, L7)
//! catches its seeded violation file, the clean fixture produces
//! nothing, and no waiver outranks a `forbid` or takes the form the
//! rule bans. One more test pins L11: the phase table of
//! `docs/architecture.md` is the walk of `Phase::next`.
//!
//! The fixtures live in `tests/fixtures/`, outside every crate's module
//! tree. Each is compiled with `clippy-driver` at the lint levels set in
//! source (which `static_analysis.rs` pins), so these tests pin the
//! exact `(line, lint)` set each mapping reports.

#[expect(
    dead_code,
    reason = "shared with static_analysis.rs, which reads the levels back out of source"
)]
#[path = "support/clippy.rs"]
mod clippy_probe;

use clippy_probe::{
    at, bench_conf, clippy, crate_root, levels_in_source, root_conf, L1, L2, L3, L5, L7,
    WORKSPACE_L4, WORKSPACE_WAIVERS,
};

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
    let found = clippy(include_str!("../fixtures/l2_arith.rs"), L2, &root_conf());
    assert_eq!(
        found,
        at(&[
            (5, "arithmetic_side_effects"),
            (5, "integer_division_remainder_used"),
            (6, "disallowed_methods"),
            (7, "disallowed_methods"),
            (8, "arithmetic_side_effects"),
        ]),
        "(a * b) % p, a.pow(3), a.wrapping_mul(b), zp.mul(a, b) + 1; \
         usize index arithmetic and the field API stay legal"
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

#[test]
fn l7_fixture_catches_wall_clock_in_deterministic_crates_only() {
    // The deterministic crates forbid `disallowed_types` at their roots;
    // the bench harness stays at the workspace `deny`.
    for name in ["core", "simnet", "crypto", "obs"] {
        assert!(
            levels_in_source(&crate_root(name), None).contains(&L7[0].to_owned()),
            "{name} must forbid the wall clock at its crate root"
        );
    }
    assert!(levels_in_source(&crate_root("bench"), None).is_empty());
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
fn clean_fixture_is_clean_under_the_strictest_scope() {
    let levels = [L1, L2, L3, L5, L7, WORKSPACE_WAIVERS].concat();
    let found = clippy(include_str!("../fixtures/clean.rs"), &levels, &root_conf());
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn l2_and_l3_allows_are_rejected_even_with_justification() {
    // An L2 waiver is an `#[expect]` whose reason names the quantity: it
    // goes stale loudly once the arithmetic leaves. An `#[allow]` is
    // rejected, and so is an `#[expect]` without a reason, in every
    // member crate (the workspace level).
    let source = "#[allow(clippy::arithmetic_side_effects, reason = \"very good reason\")]\n\
                  pub fn f(a: u64) -> u64 { a + 1 }\n\
                  #[expect(clippy::arithmetic_side_effects)]\n\
                  pub fn g(a: u64) -> u64 { a + 1 }\n\
                  #[expect(clippy::arithmetic_side_effects, reason = \"ticks\")]\n\
                  pub fn h(a: u64) -> u64 { a + 1 }\n";
    assert_eq!(
        clippy(source, &[L2, WORKSPACE_WAIVERS].concat(), &root_conf()),
        at(&[
            (1, "allow_attributes"),
            (3, "allow_attributes_without_reason")
        ])
    );
    // L3 is `forbid` on the codec and the runner: an `#[allow]` is E0453.
    let source = "pub enum E { A, B, C }\n\
                  #[allow(clippy::wildcard_enum_match_arm, reason = \"very good reason\")]\n\
                  pub fn f(e: E) -> u8 { match e { E::A => 1, _ => 0 } }\n";
    let found = clippy(source, L3, &root_conf());
    assert!(found.contains(&(2, "E0453".to_owned())), "{found:?}");
}

#[test]
fn l11_real_spec_matches_the_real_phase_machine() {
    // The spec is the first column of the phase table in
    // docs/architecture.md; the machine is `Phase::next` walked from
    // `Bidding` until it stands still (a cycle stops at 7 steps). The
    // walk's own shape is pinned by the `dmw::phases` unit tests.
    use dmw::phases::Phase;
    let machine: Vec<String> = std::iter::successors(Some(Phase::Bidding), |&at| {
        Some(at.next()).filter(|&next| next != at)
    })
    .take(7)
    .map(|phase| format!("{phase:?}"))
    .collect();
    let spec: Vec<String> = include_str!("../../docs/architecture.md")
        .lines()
        .skip_while(|line| !line.starts_with("| phase | paper step |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| Some(row.split('|').nth(1)?.trim().trim_matches('`').to_owned()))
        .collect();
    assert_eq!(machine, spec, "the phase table of docs/architecture.md");
}
